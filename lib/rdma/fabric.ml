open Heron_sim

type node = {
  id : int;
  name : string;
  mutable alive : bool;
  mutable epoch : int;  (* incarnation; bumped by [crash] *)
  mutable token : Engine.token;
  regions : (int, Memory.region) Hashtbl.t;
  mutable next_rid : int;
  signal : Signal.t;
  fabric : fabric;
}

and fabric = {
  eng : Engine.t;
  prof : Profile.t;
  nodes : (int, node) Hashtbl.t;
  mutable next_node : int;
  obs : Heron_obs.Metrics.t;
  faults : (int * int, link_fault) Hashtbl.t;  (* (src id, dst id) *)
}

(* Injected link faults (chaos layer): extra one-way latency and/or
   dropping of posted writes on one directed (src, dst) link. *)
and link_fault = { mutable lf_extra_ns : int; mutable lf_drop : bool }

type t = fabric

let create ?metrics eng ~profile =
  let obs = match metrics with Some m -> m | None -> Heron_obs.Metrics.create () in
  { eng; prof = profile; nodes = Hashtbl.create 16; next_node = 0; obs;
    faults = Hashtbl.create 8 }

let engine t = t.eng
let profile t = t.prof
let metrics t = t.obs

let add_node t ~name =
  let id = t.next_node in
  t.next_node <- id + 1;
  let node =
    {
      id;
      name;
      alive = true;
      epoch = 0;
      token = Engine.new_token t.eng;
      regions = Hashtbl.create 8;
      next_rid = 0;
      signal = Signal.create ();
      fabric = t;
    }
  in
  Hashtbl.replace t.nodes id node;
  node

let node_id n = n.id
let node_name n = n.name
let is_alive n = n.alive
let epoch n = n.epoch
let fabric_of n = n.fabric
let find_node t id = Hashtbl.find t.nodes id
let node_count t = Hashtbl.length t.nodes

let crash n =
  if n.alive then begin
    n.alive <- false;
    n.epoch <- n.epoch + 1;
    Engine.cancel n.token
  end

let recover ?(wipe = true) n =
  if not n.alive then begin
    if wipe then Hashtbl.iter (fun _ r -> Memory.wipe r) n.regions;
    n.token <- Engine.new_token n.fabric.eng;
    n.alive <- true
  end

let spawn_on n f = Engine.spawn ~token:n.token n.fabric.eng f

let alloc_region n ~size =
  let rid = n.next_rid in
  n.next_rid <- rid + 1;
  let r = Memory.make_region ~rid ~size in
  Hashtbl.replace n.regions rid r;
  r

let region n rid = Hashtbl.find n.regions rid
let mem_signal n = n.signal

(* {1 Link fault injection} *)

let set_link_fault t ~src ~dst ?(extra_ns = 0) ?(drop = false) () =
  if extra_ns < 0 then invalid_arg "Fabric.set_link_fault: negative extra_ns";
  match Hashtbl.find_opt t.faults (src, dst) with
  | Some f ->
      f.lf_extra_ns <- extra_ns;
      f.lf_drop <- drop
  | None ->
      Hashtbl.replace t.faults (src, dst) { lf_extra_ns = extra_ns; lf_drop = drop }

let clear_link_fault t ~src ~dst = Hashtbl.remove t.faults (src, dst)
let clear_all_link_faults t = Hashtbl.reset t.faults

let link_extra_ns t ~src ~dst =
  match Hashtbl.find_opt t.faults (src, dst) with
  | Some f -> f.lf_extra_ns
  | None -> 0

let link_drops t ~src ~dst =
  match Hashtbl.find_opt t.faults (src, dst) with
  | Some f -> f.lf_drop
  | None -> false

let check_local n (a : Memory.addr) =
  if a.Memory.mem_node <> n.id then
    invalid_arg "Fabric: address does not name this node"

let local_read n a ~len =
  check_local n a;
  Memory.read_bytes (region n a.Memory.mem_rid) ~off:a.Memory.mem_off ~len

let local_write n a payload =
  check_local n a;
  Memory.write_bytes (region n a.Memory.mem_rid) ~off:a.Memory.mem_off payload
