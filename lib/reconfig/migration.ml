open Heron_sim
open Heron_rdma
open Heron_multicast
open Heron_core
open Heron_obs
module Ring = Heron_topology.Ring
module Shard_map = Heron_topology.Shard_map

type reshard = {
  rs_epoch : int;
  rs_src : int;
  rs_dst : int;
  rs_moved : int;
}

(* The one command path, shared by migrations, splits and merges: take
   the exclusive slot, multicast the Migrate command to every partition,
   wait for each partition's acknowledgement and commit the command to
   the directory exactly as every replica installed it; returns the
   installed epoch. With [trace_op] (a split or merge) the command is
   one trace, minted only once the slot is held. *)
let order sys ~from ~trace_op ~src ~dst ~oids ~shards =
  let dir = System.directory sys in
  if not (Placement.begin_exclusive dir) then
    Error "another reconfiguration is in flight"
  else
    Fun.protect
      ~finally:(fun () -> Placement.end_exclusive dir)
      (fun () ->
        let cfg = System.config sys in
        let tracing =
          match (cfg.Config.reqtrace, trace_op) with
          | Some col, Some op -> Some (col, op)
          | _ -> None
        in
        let t0 = Engine.now (System.engine sys) in
        let trace, parent =
          match tracing with
          | Some (col, op) ->
              Reqtrace.start_trace col
                ~attrs:
                  [ ("op", op);
                    ("src", string_of_int src);
                    ("dst", string_of_int dst) ]
                ~now:t0 ()
          | None -> (0, 0)
        in
        let parts = List.init cfg.Config.partitions Fun.id in
        let acks = List.map (fun p -> (p, Ivar.create ())) parts in
        let epoch = Placement.epoch (Placement.view dir) + 1 in
        let mg =
          {
            Replica.mg_epoch = epoch;
            mg_src = src;
            mg_dst = dst;
            mg_oids = oids;
            mg_shards = shards;
            mg_client_node = from;
            mg_trace = trace;
            mg_parent = parent;
            mg_done =
              (fun ~part ->
                match List.assoc_opt part acks with
                | Some iv -> ignore (Ivar.try_fill iv ())
                | None -> ());
          }
        in
        ignore
          (Ramcast.multicast (System.multicast sys) ~from ~dst:parts
             (Replica.Migrate mg));
        List.iter (fun (_, iv) -> Ivar.read iv) acks;
        Placement.commit ?shards dir ~epoch ~moves:(Replica.placement_moves mg);
        (match tracing with
        | Some (col, op) when trace <> 0 ->
            let now = Engine.now (System.engine sys) in
            ignore
              (Reqtrace.add_span col ~trace ~parent ~stage:(op ^ ".commit")
                 ~attrs:[ ("epoch", string_of_int epoch) ]
                 ~start:t0 now);
            Reqtrace.finish col ~trace ~now
        | _ -> ());
        Ok epoch)

(* {1 Object migration (§10)} *)

(* Cell capacity of each object, read off a live source replica's store
   (the cell layout is [32 + 2*cap] bytes). *)
let caps_from_source sys ~src oids =
  let replicas = System.replicas sys in
  let rec pick i =
    if i >= Array.length replicas.(src) then None
    else
      let r = replicas.(src).(i) in
      if
        Fabric.is_alive (Replica.node r)
        && List.for_all (fun oid -> Versioned_store.mem (Replica.store r) oid) oids
      then Some r
      else pick (i + 1)
  in
  match pick 0 with
  | None -> None
  | Some r ->
      Some
        (List.map
           (fun oid ->
             (oid, (Versioned_store.cell_len (Replica.store r) oid - 32) / 2))
           oids)

let validate sys ~oids ~dst =
  let cfg = System.config sys in
  let app = System.app sys in
  if not cfg.Config.reconfig.Config.enabled then
    Error "reconfiguration is disabled (Config.reconfig)"
  else if oids = [] then Error "empty migration batch"
  else if dst < 0 || dst >= cfg.Config.partitions then
    Error (Printf.sprintf "destination partition %d out of range" dst)
  else if
    List.exists (fun oid -> app.App.klass_of oid <> Versioned_store.Registered) oids
  then Error "only Registered objects can migrate"
  else
    let view = Placement.view (System.directory sys) in
    match List.map (Placement.placement_under view app.App.placement_of) oids with
    | (App.Partition src as home) :: rest ->
        if List.exists (fun h -> h <> home) rest then
          Error "migration batch spans several source partitions"
        else if src = dst then Error "source and destination coincide"
        else Ok src
    | _ -> Error "replicated objects cannot migrate"

let migrate sys ~from ~oids ~dst =
  match validate sys ~oids ~dst with
  | Error _ as e -> e
  | Ok src -> (
      match caps_from_source sys ~src oids with
      | None -> Error "no live source replica holds the batch"
      | Some oids_caps ->
          order sys ~from ~trace_op:None ~src ~dst ~oids:oids_caps ~shards:None
          |> Result.map (fun _ ->
                 let reg = (System.config sys).Config.metrics in
                 Metrics.incr (Metrics.counter reg "reconfig.migrations");
                 Metrics.add
                   (Metrics.counter reg "reconfig.objects_moved")
                   (List.length oids)))

(* {1 Shard splits and merges (§15)} *)

(* The directory's shard table; System.create installs one exactly when
   the elastic topology is on. *)
let shard_table sys =
  match Placement.shards (Placement.view (System.directory sys)) with
  | Some sm -> Ok sm
  | None -> Error "elastic topology is disabled (Config.topology)"

(* The catalog objects a table change re-homes: registered,
   partition-placed, not pinned elsewhere by a per-object override, and
   hashing into the moved arc [lo, hi). Hash-in-arc plus no-override
   implies the object is currently homed at the arc's old group, so
   this is exactly the set the destination must bootstrap. Enumerated
   from the catalog (every object enters the system through it), in oid
   order, so any orchestrator computes the same list. *)
let moved_objects sys ~lo ~hi =
  let app = System.app sys in
  let view = Placement.view (System.directory sys) in
  List.filter_map
    (fun spec ->
      match (spec.App.spec_klass, spec.App.spec_placement) with
      | Versioned_store.Registered, App.Partition _
        when Placement.lookup view spec.App.spec_oid = None ->
          let p = Ring.point_of_key (Oid.to_int spec.App.spec_oid) in
          if lo <= p && p < hi then Some (spec.App.spec_oid, spec.App.spec_cap)
          else None
      | _ -> None)
    (List.sort
       (fun a b -> compare (Oid.to_int a.App.spec_oid) (Oid.to_int b.App.spec_oid))
       (app.App.catalog ()))

(* A split or merge is a command carrying the replacement table and the
   carved objects: the Phase-2 barrier freezes the source at the cut,
   the destination group bootstraps the carved cells via the state-sync
   fetch path, and stale clients chase redirects exactly as for a
   migration. *)
let reshard sys ~from ~op ~table ~src ~dst ~lo ~hi =
  let moved = moved_objects sys ~lo ~hi in
  order sys ~from ~trace_op:(Some op) ~src ~dst ~oids:moved
    ~shards:(Some table)
  |> Result.map (fun epoch ->
         let reg = (System.config sys).Config.metrics in
         Metrics.incr (Metrics.counter reg (Printf.sprintf "topology.%ss" op));
         Metrics.add
           (Metrics.counter reg "topology.objects_moved")
           (List.length moved);
         { rs_epoch = epoch; rs_src = src; rs_dst = dst;
           rs_moved = List.length moved })

let split sys ~from ~shard =
  match shard_table sys with
  | Error _ as e -> e
  | Ok sm -> (
      let pool = (System.config sys).Config.partitions in
      match Shard_map.split sm ~shard ~pool with
      | Error e -> Error ("split: " ^ e)
      | Ok (table, info) ->
          reshard sys ~from ~op:"split" ~table ~src:info.Shard_map.sp_parent
            ~dst:info.Shard_map.sp_child ~lo:info.Shard_map.sp_mid
            ~hi:info.Shard_map.sp_hi)

let merge sys ~from ~left =
  match shard_table sys with
  | Error _ as e -> e
  | Ok sm -> (
      match Shard_map.merge sm ~left with
      | Error e -> Error ("merge: " ^ e)
      | Ok (table, info) ->
          reshard sys ~from ~op:"merge" ~table ~src:info.Shard_map.mg_dissolved
            ~dst:info.Shard_map.mg_survivor ~lo:info.Shard_map.mg_lo
            ~hi:info.Shard_map.mg_hi)
