open Heron_sim
open Heron_rdma
open Heron_stats
open Heron_multicast
open Heron_core
open Heron_tpcc

type run_stats = {
  rs_throughput_tps : float;
  rs_latency : Sample_set.t;
  rs_latency_single : Sample_set.t;
  rs_latency_multi : Sample_set.t;
  rs_completed : int;
  rs_window : Heron_obs.Metrics.snapshot;
}

let default_warmup = Time_ns.ms 10
let default_measure = Time_ns.ms 40

(* The closed-loop bookkeeping every runner shares: clients [record]
   each completed request, and [run_window] runs the warmup, opens the
   measurement window until [warmup_end + measure], and returns the
   window's samples and registry diff. *)
type window = {
  latency : Sample_set.t;
  single : Sample_set.t;
  multi : Sample_set.t;
  mutable measuring : bool;
}

let window () =
  let set = Sample_set.create in
  { latency = set (); single = set (); multi = set (); measuring = false }

let record w ~is_multi dt =
  if w.measuring then begin
    Sample_set.add w.latency dt;
    Sample_set.add (if is_multi then w.multi else w.single) dt
  end

let run_window w eng ~snapshot ~warmup_end ~measure =
  Engine.run_until eng warmup_end;
  let before = snapshot () in
  w.measuring <- true;
  Engine.run_until eng (warmup_end + measure);
  w.measuring <- false;
  let completed = Sample_set.count w.latency in
  {
    rs_throughput_tps = float_of_int completed /. Time_ns.to_s_f measure;
    rs_latency = w.latency;
    rs_latency_single = w.single;
    rs_latency_multi = w.multi;
    rs_completed = completed;
    rs_window = Heron_obs.Metrics.diff ~before ~after:(snapshot ());
  }

let run_system ?(warmup = default_warmup) ?(measure = default_measure) ~sys ~clients
    ~gen () =
  let eng = System.engine sys in
  let w = window () in
  for c = 0 to clients - 1 do
    let rng = Random.State.make [| c; 0xC11E47 |] in
    let node = System.new_client_node sys ~name:(Printf.sprintf "client-%d" c) in
    Fabric.spawn_on node (fun () ->
        let rec loop () =
          let req, dst_override = gen ~client:c rng in
          let t0 = Engine.self_now () in
          (* [submit] routes through the client's cached placement view
             under live repartitioning (and retries redirects); pinned
             destinations bypass it. *)
          let resps =
            match dst_override with
            | Some dst -> System.submit_to sys ~from:node ~dst req
            | None -> System.submit sys ~from:node req
          in
          record w ~is_multi:(List.length resps <> 1) (Engine.self_now () - t0);
          loop ()
        in
        loop ())
  done;
  let reg = (System.config sys).Config.metrics in
  run_window w eng
    ~snapshot:(fun () -> Heron_obs.Metrics.snapshot reg)
    ~warmup_end:(Engine.now eng + warmup) ~measure

let window_count rs ~labels name =
  match Heron_obs.Metrics.find rs.rs_window ~labels name with
  | Some (Heron_obs.Metrics.Counter_v n) -> n
  | _ -> 0

let window_hist rs ~labels name =
  match Heron_obs.Metrics.find rs.rs_window ~labels name with
  | Some (Heron_obs.Metrics.Histogram_v h) -> (h.Heron_obs.Metrics.hs_count, h.hs_sum)
  | _ -> (0, 0)

let config ?metrics ~partitions ~replicas () =
  let cfg = Config.default ~partitions ~replicas in
  match metrics with Some m -> { cfg with Config.metrics = m } | None -> cfg

let heron_tpcc_system ?(seed = 1) ?(replicas = 3) ?metrics ?(cfg_tweak = Fun.id) ~scale
    () =
  let eng = Engine.create ~seed () in
  let cfg =
    cfg_tweak (config ?metrics ~partitions:scale.Scale.warehouses ~replicas ())
  in
  let app = Tx.app ~scale ~seed:1 in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  sys

let tpcc_gen ~profile ~scale ~client rng =
  let home_w = (client mod scale.Scale.warehouses) + 1 in
  (Workload.gen profile ~scale ~rng ~home_w, None)

(* {1 Null application (coordination-only requests)} *)

type null_req = { nr_dst : int list; nr_bytes : int }

let null_app =
  {
    App.app_name = "null";
    placement_of = (fun _ -> App.Partition 0);
    klass_of = (fun _ -> Versioned_store.Registered);
    read_set = (fun _ -> []);
    read_plan = (fun ~part:_ _ -> []);
    write_sketch = (fun _ -> []);
    req_size = (fun r -> r.nr_bytes);
    resp_size = (fun () -> 8);
    execute = (fun _ _ -> ());
    serial_hint = (fun _ -> false);
    read_only = (fun _ -> false);
    catalog = (fun () -> []);
  }

(* {1 RamCast-only runs} *)

let run_ramcast ?(seed = 1) ?(warmup = default_warmup) ?(measure = default_measure)
    ?(replicas = 3) ?metrics ~partitions ~clients ~gen_dst ~msg_bytes () =
  let eng = Engine.create ~seed () in
  let fab = Fabric.create ?metrics eng ~profile:Profile.default in
  let groups =
    Array.init partitions (fun g ->
        Array.init replicas (fun i ->
            Fabric.add_node fab ~name:(Printf.sprintf "g%d-r%d" g i)))
  in
  let sys = Ramcast.create fab ~size_of:(fun _ -> msg_bytes) ~groups in
  (* Completion tracking: a message is complete once every destination
     group has delivered it somewhere. *)
  let waiting : (int, int ref * unit Ivar.t) Hashtbl.t = Hashtbl.create 4096 in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  for g = 0 to partitions - 1 do
    for i = 0 to replicas - 1 do
      Ramcast.set_deliver sys ~gid:g ~idx:i (fun d ->
          let uid = d.Ramcast.d_uid in
          if not (Hashtbl.mem seen (uid, g)) then begin
            Hashtbl.replace seen (uid, g) ();
            match Hashtbl.find_opt waiting uid with
            | Some (remaining, iv) ->
                decr remaining;
                if !remaining = 0 then begin
                  Hashtbl.remove waiting uid;
                  Ivar.fill iv ()
                end
            | None -> ()
          end)
    done
  done;
  Ramcast.start sys;
  let w = window () in
  for c = 0 to clients - 1 do
    let rng = Random.State.make [| c; 0x52414d |] in
    let node = Fabric.add_node fab ~name:(Printf.sprintf "rc-client-%d" c) in
    Fabric.spawn_on node (fun () ->
        let rec loop () =
          let dst = gen_dst rng in
          let iv = Ivar.create () in
          let t0 = Engine.self_now () in
          (* Register before multicasting: delivery can be concurrent. *)
          let remaining = ref (List.length dst) in
          let uid = Ramcast.multicast sys ~from:node ~dst () in
          (* Deliveries cannot have fired yet at this instant: the
             submit transfer itself takes non-zero time. *)
          Hashtbl.replace waiting uid (remaining, iv);
          Ivar.read iv;
          record w ~is_multi:(List.length dst <> 1) (Engine.self_now () - t0);
          loop ()
        in
        loop ())
  done;
  run_window w eng
    ~snapshot:(fun () -> Heron_obs.Metrics.snapshot (Fabric.metrics fab))
    ~warmup_end:warmup ~measure

(* {1 DynaStar runs} *)

let run_dynastar ?(seed = 1) ?(warmup = Time_ns.ms 40) ?(measure = Time_ns.ms 160)
    ?(replicas = 3) ?(config = Heron_dynastar.Dynastar.default_config) ~scale ~clients
    ~profile () =
  let open Heron_dynastar in
  let eng = Engine.create ~seed () in
  let app = Tx.app ~scale ~seed:1 in
  let ds =
    Dynastar.create eng ~config ~partitions:scale.Scale.warehouses ~replicas ~app ()
  in
  Dynastar.start ds;
  let w = window () in
  for c = 0 to clients - 1 do
    let rng = Random.State.make [| c; 0xD57A7 |] in
    let client = Dynastar.new_client ds ~name:(Printf.sprintf "ds-client-%d" c) in
    let home_w = (c mod scale.Scale.warehouses) + 1 in
    Engine.spawn eng (fun () ->
        let rec loop () =
          let req = Workload.gen profile ~scale ~rng ~home_w in
          let is_multi = Tx.is_multi_warehouse req in
          let t0 = Engine.self_now () in
          ignore (Dynastar.submit ds client req);
          record w ~is_multi (Engine.self_now () - t0);
          loop ()
        in
        loop ())
  done;
  (* DynaStar's message network records into no registry. *)
  run_window w eng ~snapshot:(fun () -> []) ~warmup_end:warmup ~measure
