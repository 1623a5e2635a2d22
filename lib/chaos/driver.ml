open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv
module Lincheck = Heron_lincheck.Lincheck
module Metrics = Heron_obs.Metrics
module S = Schedule

type failure =
  | Stalled of { completed : int; expected : int }
  | Diverged of { detail : string }
  | Invariant of { part : int; idx : int; detail : string }
  | Not_linearizable of { detail : string }
  | Unbounded of { detail : string }
  | Crashed of { detail : string }

type outcome = Completed of { completed : int } | Failed of failure

let failure_kind = function
  | Stalled _ -> "stalled"
  | Diverged _ -> "diverged"
  | Invariant _ -> "invariant"
  | Not_linearizable _ -> "not_linearizable"
  | Unbounded _ -> "unbounded"
  | Crashed _ -> "crashed"

let gen_op sc rng =
  match sc.S.sc_workload with
  | S.Incr_all -> Kv_app.Incr_all [ 0; 1 ]
  | S.Mixed -> (
      let keys = sc.S.sc_keys in
      match Random.State.int rng 5 with
      | 0 -> Kv_app.Put (Random.State.int rng keys, Int64.of_int (Random.State.int rng 100))
      | 1 -> Kv_app.Get (Random.State.int rng keys)
      | 2 -> Kv_app.Add (Random.State.int rng keys, 1L)
      | 3 -> Kv_app.Incr_all [ 0; 1 ]
      | _ -> Kv_app.Read_all [ 0; 1 ])

let replica_node sys (part, idx) = Replica.node (System.replica sys ~part ~idx)

(* Schedule one event's injection callbacks. Spanned events install
   their fault at [at] and carry their own cleanup at [at + span], so
   removing the event from a schedule removes both sides. Replicas are
   re-resolved at fire time: a restart replaces the replica object.
   Injections that would leave the envelope are skipped and counted in
   [skipped]. *)
let inject sys ~skipped ev =
  let eng = System.engine sys in
  let fab = System.fabric sys in
  let at t f = Engine.schedule ~delay:t eng f in
  match ev with
  | S.Crash { part; idx; at = t } ->
      at t (fun () ->
          let node = replica_node sys (part, idx) in
          (* Peers must be alive AND fully synchronised: a replica mid
             state-transfer has not yet adopted suffixes its peers
             acknowledged under Phase 4's grace, so its peers are not
             expendable yet (see {!Replica.in_recovery}). *)
          let peers_ready =
            let ok = ref true in
            Array.iteri
              (fun i r ->
                if
                  i <> idx
                  && ((not (Fabric.is_alive (Replica.node r)))
                     || Replica.in_recovery r)
                then ok := false)
              (System.replicas sys).(part);
            !ok
          in
          if idx > 0 && Fabric.is_alive node && peers_ready then Fabric.crash node
          else Metrics.incr skipped)
  | S.Restart { part; idx; at = t } ->
      at t (fun () ->
          if not (Fabric.is_alive (replica_node sys (part, idx))) then
            Engine.spawn ~name:"chaos-restart" eng (fun () ->
                System.restart_replica sys ~part ~idx)
          else Metrics.incr skipped)
  | S.Delay_link { src; dst; extra_ns; at = t; span } ->
      at t (fun () ->
          let src = Fabric.node_id (replica_node sys src)
          and dst = Fabric.node_id (replica_node sys dst) in
          Fabric.set_link_fault fab ~src ~dst ~extra_ns ());
      at (t + span) (fun () ->
          let src = Fabric.node_id (replica_node sys src)
          and dst = Fabric.node_id (replica_node sys dst) in
          Fabric.clear_link_fault fab ~src ~dst)
  | S.Drop_writes { src; dst; at = t; span } ->
      at t (fun () ->
          let src = Fabric.node_id (replica_node sys src)
          and dst = Fabric.node_id (replica_node sys dst) in
          Fabric.set_link_fault fab ~src ~dst ~drop:true ());
      at (t + span) (fun () ->
          let src = Fabric.node_id (replica_node sys src)
          and dst = Fabric.node_id (replica_node sys dst) in
          Fabric.clear_link_fault fab ~src ~dst)
  | S.Pause_replica { part; idx; extra_ns; at = t; span } ->
      at t (fun () -> Replica.inject_exec_delay (System.replica sys ~part ~idx) extra_ns);
      at (t + span) (fun () -> Replica.inject_exec_delay (System.replica sys ~part ~idx) 0)
  | S.Migrate { key; dst; at = t } ->
      at t (fun () ->
          (* The migration client blocks on per-partition acks, so it
             runs on its own node; skipped moves (already home, another
             migration in flight, no live source) count like any other
             no-op injection. *)
          let node = System.new_client_node sys ~name:"chaos-mig" in
          Fabric.spawn_on node (fun () ->
              match
                Heron_reconfig.Migration.migrate sys ~from:node
                  ~oids:[ Kv_app.oid_of_key key ] ~dst
              with
              | Ok () -> ()
              | Error _ -> Metrics.incr skipped))
  | S.Split { shard; at = t } ->
      at t (fun () ->
          (* Indices are reduced against the live table at fire time:
             pinned schedules stay meaningful whatever earlier shard ops
             did. An impossible split (topology off, arc too narrow,
             pool exhausted, orchestrator busy) is skipped and counted
             like any other no-op injection. *)
          let node = System.new_client_node sys ~name:"chaos-split" in
          Fabric.spawn_on node (fun () ->
              match Placement.shards (Placement.view (System.directory sys)) with
              | None -> Metrics.incr skipped
              | Some sm -> (
                  let shard = shard mod Heron_topology.Shard_map.count sm in
                  match Heron_reconfig.Migration.split sys ~from:node ~shard with
                  | Ok _ -> ()
                  | Error _ -> Metrics.incr skipped)))
  | S.Merge { left; at = t } ->
      at t (fun () ->
          let node = System.new_client_node sys ~name:"chaos-merge" in
          Fabric.spawn_on node (fun () ->
              match Placement.shards (Placement.view (System.directory sys)) with
              | Some sm when Heron_topology.Shard_map.count sm >= 2 -> (
                  let left = left mod (Heron_topology.Shard_map.count sm - 1) in
                  match Heron_reconfig.Migration.merge sys ~from:node ~left with
                  | Ok _ -> ()
                  | Error _ -> Metrics.incr skipped)
              | _ -> Metrics.incr skipped))

let divergence sys =
  let problem = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  Array.iteri
    (fun p row ->
      let live =
        Array.to_list row |> List.filter (fun r -> Fabric.is_alive (Replica.node r))
      in
      match live with
      | [] -> note "partition %d has no live replicas" p
      | first :: rest ->
          List.iter
            (fun r ->
              List.iter
                (fun oid ->
                  if not (Versioned_store.mem (Replica.store r) oid) then
                    note "partition %d: replica %d lacks oid %d, which replica %d holds"
                      p (Replica.idx r) (Oid.to_int oid) (Replica.idx first)
                  else
                    let va, ta = Versioned_store.get (Replica.store first) oid in
                    let vb, tb = Versioned_store.get (Replica.store r) oid in
                    if not (Bytes.equal va vb) then
                      note
                        "partition %d: replica %d disagrees with replica %d on oid %d \
                         (%Ld@%s applied %s vs %Ld@%s applied %s)"
                        p (Replica.idx r) (Replica.idx first) (Oid.to_int oid)
                        (Bytes.get_int64_le vb 0)
                        (Format.asprintf "%a" Heron_multicast.Tstamp.pp tb)
                        (Format.asprintf "%a" Heron_multicast.Tstamp.pp
                           (Replica.last_req r))
                        (Bytes.get_int64_le va 0)
                        (Format.asprintf "%a" Heron_multicast.Tstamp.pp ta)
                        (Format.asprintf "%a" Heron_multicast.Tstamp.pp
                           (Replica.last_req first)))
                (Versioned_store.registered_oids (Replica.store first)))
            rest)
    (System.replicas sys);
  !problem

(* Stall windows: the spans in which a live replica may legitimately
   fall behind and hold back the multicast log's reclamation cut, which
   waits for every live replica's applied frontier. A pause, delay or
   drop holds it for its span. A crash holds it from the crash (the
   crashed replica's peers in other partitions wait on it) until as
   long again after its restart (the rejoiner catches up); a crash
   that is never restarted holds it to the end of the run. Overlapping
   windows merge, since a replica behind in one does not catch up
   before the next one ends. Returns sorted, disjoint [(start, stop)]
   spans; [stop = max_int] is open-ended. *)
let stall_windows sc =
  let spans =
    List.concat_map
      (function
        | S.Pause_replica { at; span; _ } | S.Delay_link { at; span; _ }
        | S.Drop_writes { at; span; _ } ->
            [ (at, at + span) ]
        | S.Crash { part; idx; at } ->
            let back =
              List.fold_left
                (fun back -> function
                  | S.Restart r when r.part = part && r.idx = idx && r.at >= at ->
                      min back r.at
                  | _ -> back)
                max_int sc.S.sc_events
            in
            [ (at, if back = max_int then max_int else back + (back - at)) ]
        | _ -> [])
      sc.S.sc_events
  in
  List.fold_left
    (fun acc (a, b) ->
      match acc with
      | (a', b') :: rest when a <= b' -> (a', max b b') :: rest
      | _ -> (a, b) :: acc)
    [] (List.sort compare spans)
  |> List.rev

(* Count the multicasts issued inside each stall window as the run
   goes (every multicast: client requests, lease grants, migration and
   reshard commands alike). The returned reader gives the most issued
   in any one window; a window still open when it is read counts up to
   then. *)
let watch_stalls sys cfg sc =
  let eng = System.engine sys in
  let submits = Metrics.counter cfg.Config.metrics "mcast.submits" in
  let windows =
    List.map
      (fun (a, b) ->
        let first = ref (-1) and last = ref (-1) in
        Engine.schedule ~delay:a eng (fun () -> first := Metrics.counter_value submits);
        if b < max_int then
          Engine.schedule ~delay:b eng (fun () -> last := Metrics.counter_value submits);
        (first, last))
      (stall_windows sc)
  in
  fun () ->
    let now = Metrics.counter_value submits in
    List.fold_left
      (fun acc (first, last) ->
        if !first < 0 then acc
        else max acc ((if !last < 0 then now else !last) - !first))
      0 windows

(* Bounded-memory verdict (DESIGN.md §13): a run that linearizes but
   whose logs grew with history, or whose rejoins replayed O(history),
   failed the point of reclaiming them. Bounds are derived from the
   schedule itself. The multicast log is reclaimed with durability on
   or off, so its retention is judged on every run: the cut lags the
   slowest live replica by at most one entry per client plus what was
   issued during the longest stall window ([stalled]), and the leader
   compacts once the droppable prefix is half the log, so a member
   retains at most twice that. For the checkpoint, update-log and
   rejoin-replay bounds, judged on [longhaul] runs only, traffic is
   paced across the horizon, so one checkpoint interval sees about
   [total ops x interval / horizon] updates, and both retained-log
   footprints and per-rejoin replay must stay within a few intervals'
   worth — independent of run length. *)
let check_bounded ~longhaul ~stalled sys cfg sc =
  let reg = cfg.Config.metrics in
  let snap = Metrics.snapshot reg in
  let counter name =
    match Metrics.find snap name with Some (Metrics.Counter_v v) -> v | _ -> 0
  in
  let hist_max name =
    match Metrics.find snap name with
    | Some (Metrics.Histogram_v h) -> h.Metrics.hs_max
    | _ -> 0
  in
  let interval = cfg.Config.durability.Config.dur_interval_ns in
  let expected = sc.S.sc_clients * sc.S.sc_ops in
  let per_window = expected * interval / sc.S.sc_horizon_ns in
  let len_bound = 48 + (8 * per_window) in
  let mcast_bound = 2 * (sc.S.sc_clients + stalled) in
  let restarts =
    List.length
      (List.filter (function S.Restart _ -> true | _ -> false) sc.S.sc_events)
  in
  let problem = ref None in
  let note fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  if longhaul && counter "durability.checkpoints" = 0 then
    note "no checkpoints were taken over a %dms horizon"
      (sc.S.sc_horizon_ns / 1_000_000);
  if longhaul && counter "durability.truncated_entries" = 0 then
    note "no update-log entries were ever truncated: memory is unbounded";
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun i r ->
          if Fabric.is_alive (Replica.node r) then begin
            let len = Update_log.length (Replica.update_log r) in
            if longhaul && len > len_bound then
              note "p%d/r%d final update log holds %d entries (bound %d)" p i len
                len_bound;
            let retained =
              Heron_multicast.Ramcast.log_retained (System.multicast sys) ~gid:p
                ~idx:i
            in
            if retained > mcast_bound then
              note "p%d/r%d retains %d multicast log entries (bound %d)" p i
                retained mcast_bound
          end)
        row)
    (System.replicas sys);
  let lmax = hist_max "durability.log_len" in
  if longhaul && lmax > len_bound then
    note "update log peaked at %d entries across checkpoints (bound %d)" lmax
      len_bound;
  let mmax = hist_max "durability.mcast_log_len" in
  if mmax > mcast_bound then
    note "multicast log peaked at %d retained entries (bound %d)" mmax mcast_bound;
  let replayed = counter "mcast.rejoin_replayed" in
  if longhaul && restarts > 0 && replayed > restarts * len_bound then
    note "%d rejoins replayed %d multicast entries total (O(delta) bound %d each)"
      restarts replayed (restarts * len_bound);
  !problem

let run_exn ?inspect sc =
  let { S.pipeline; fast_reads; durability; longhaul } = sc.S.sc_deployment in
  let eng = Engine.create ~seed:sc.S.sc_seed () in
  let horizon = sc.S.sc_horizon_ns in
  let base =
    Config.default ~partitions:sc.S.sc_partitions ~replicas:sc.S.sc_replicas
  in
  let cfg =
    {
      base with
      reconfig = { Config.enabled = true };
      (* The elastic topology and the feature switches below ride in
         the schedule itself: a pinned JSON replays under the
         deployment it was found in wherever it runs, and pins from
         before either field decode to everything off —
         behavior-identical to the system that pinned them. *)
      topology =
        (if sc.S.sc_shards > 0 then
           { Config.topo_enabled = true; topo_shards = sc.S.sc_shards }
         else Config.default_topology);
      pipeline =
        (if pipeline then
           { Config.default_pipeline with Config.pipe_enabled = true }
         else Config.default_pipeline);
      (* The lease cadence scales with the horizon like the checkpoint
         cadence below: every grant is a multicast, so renewing every
         800us across a minutes-long longhaul schedule would swamp the
         event count — a few hundred grant rounds per run is enough
         lease churn. *)
      fast_reads =
        (if fast_reads then
           { Config.default_fast_reads with
             Config.fr_enabled = true;
             fr_lease_ns =
               max Config.default_fast_reads.Config.fr_lease_ns (horizon / 256);
             fr_renew_ns =
               max Config.default_fast_reads.Config.fr_renew_ns (horizon / 640);
           }
         else Config.default_fast_reads);
      durability =
        (if durability then
           { Config.dur_enabled = true;
             (* Scale the checkpoint cadence to the horizon: a few
                hundred checkpoint rounds per run, whatever its length. *)
             dur_interval_ns =
               max Config.default_durability.Config.dur_interval_ns
                 (horizon / 256) }
         else Config.default_durability);
      (* Longhaul runs relax the leader liveness poll — index 0 never
         crashes in generated schedules, and sub-millisecond polling
         across minutes of virtual time would dominate the event
         count. *)
      mcast =
        (if longhaul then
           { base.Config.mcast with
             Heron_multicast.Ramcast.leader_check_ns =
               max base.Config.mcast.Heron_multicast.Ramcast.leader_check_ns
                 (horizon / 2048) }
         else base.Config.mcast);
    }
  in
  let sys =
    System.create eng ~cfg
      ~app:(Kv_app.app ~keys:sc.S.sc_keys ~partitions:sc.S.sc_partitions ~init:0L)
  in
  System.start sys;
  let expected = sc.S.sc_clients * sc.S.sc_ops in
  let completed = ref 0 in
  let history = ref [] in
  for c = 0 to sc.S.sc_clients - 1 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "chaos-c%d" c) in
    let rng = Random.State.make [| sc.S.sc_seed; c; 0xC11E |] in
    Fabric.spawn_on node (fun () ->
        for _ = 1 to sc.S.sc_ops do
          let op = gen_op sc rng in
          let t0 = Engine.self_now () in
          let resps = System.submit sys ~from:node op in
          let t1 = Engine.self_now () in
          history :=
            {
              Lincheck.ev_client = c;
              ev_op = op;
              ev_result = snd (List.hd resps);
              ev_invoke = t0;
              ev_return = t1;
            }
            :: !history;
          incr completed;
          if sc.S.sc_think_ns > 0 then Engine.sleep sc.S.sc_think_ns
        done)
  done;
  let skipped = Metrics.counter cfg.Config.metrics "chaos.injections_skipped" in
  List.iter (inject sys ~skipped) sc.S.sc_events;
  let stalled = watch_stalls sys cfg sc in
  (* Advance in short steps so a finished run does not simulate the
     whole horizon's worth of failure-detector polling. *)
  let step = max (Time_ns.ms 2) (horizon / 512) in
  let debug = Sys.getenv_opt "CHAOS_DEBUG" <> None in
  while !completed < expected && Engine.now eng < horizon do
    Engine.run_for eng step;
    if debug then begin
      Printf.eprintf "t=%dus completed=%d\n" (Engine.now eng / 1000) !completed;
      let snap = Metrics.snapshot cfg.Config.metrics in
      let count p i name =
        let labels = [ ("part", string_of_int p); ("idx", string_of_int i) ] in
        match Metrics.find snap ~labels name with
        | Some (Metrics.Counter_v v) -> v
        | _ -> 0
      in
      Array.iteri
        (fun p row ->
          Array.iteri
            (fun i r ->
              Printf.eprintf "  p%d/r%d alive=%b last_req=%s applied_log=%s lag=%d srv=%d\n"
                p i
                (Fabric.is_alive (Replica.node r))
                (Format.asprintf "%a" Heron_multicast.Tstamp.pp (Replica.last_req r))
                (Format.asprintf "%a" Heron_multicast.Tstamp.pp
                   (Update_log.last_tmp (Replica.update_log r)))
                (count p i "coord.lagger_detections")
                (count p i "coord.state_transfers"))
            row)
        (System.replicas sys);
      for g = 0 to sc.S.sc_partitions - 1 do
        prerr_string (Heron_multicast.Ramcast.debug_state (System.multicast sys) ~gid:g)
      done
    end
  done;
  if !completed < expected then
    Failed (Stalled { completed = !completed; expected })
  else begin
      (* Settle: let every scheduled fault expire and any in-flight
         recovery finish, then clear leftovers (a shrunk schedule may
         have lost a cleanup edge) and judge the quiescent system. *)
      let last_end = List.fold_left (fun a e -> max a (S.event_end e)) 0 sc.S.sc_events in
      Engine.run_until eng (max (Engine.now eng) last_end);
      Fabric.clear_all_link_faults (System.fabric sys);
      Array.iter
        (fun row -> Array.iter (fun r -> Replica.inject_exec_delay r 0) row)
        (System.replicas sys);
      Engine.run_for eng (Time_ns.ms 15);
      (* With durability on, let a couple more checkpoint rounds land so
         the final truncation frontier reflects the drained traffic —
         the longhaul verdict's final-log-length bounds assume it. *)
      if durability then
        Engine.run_for eng (3 * cfg.Config.durability.Config.dur_interval_ns);
      match divergence sys with
      | Some detail -> Failed (Diverged { detail })
      | None -> (
          let invariant_breach = ref None in
          Array.iter
            (fun row ->
              Array.iter
                (fun r ->
                  if !invariant_breach = None && Fabric.is_alive (Replica.node r) then
                    match Replica.check_invariants r with
                    | Ok () -> ()
                    | Error detail ->
                        invariant_breach :=
                          Some (Invariant { part = Replica.part r; idx = Replica.idx r; detail }))
                row)
            (System.replicas sys);
          match !invariant_breach with
          | Some f -> Failed f
          | None -> (
              let spec = Kv_model.spec ~keys:sc.S.sc_keys ~init:0L in
              match
                Lincheck.counterexample_free ~pp_op:Kv_model.pp_op
                  ~pp_result:Kv_model.pp_result spec (List.rev !history)
              with
              | Error detail -> Failed (Not_linearizable { detail })
              | Ok () -> (
                  (match inspect with Some f -> f sys | None -> ());
                  match check_bounded ~longhaul ~stalled:(stalled ()) sys cfg sc with
                  | Some detail -> Failed (Unbounded { detail })
                  | None -> Completed { completed = !completed })))
  end

let run ?inspect sc =
  (* An exception out of the event loop is protocol code breaking (an
     assert, an array bound), not the harness: capture it as a failure
     so it can be shrunk and pinned like any other. *)
  try run_exn ?inspect sc
  with e -> Failed (Crashed { detail = Printexc.to_string e })

let pp_failure ppf = function
  | Stalled { completed; expected } ->
      Format.fprintf ppf "stalled: %d of %d operations completed" completed expected
  | Diverged { detail } -> Format.fprintf ppf "diverged: %s" detail
  | Invariant { part; idx; detail } ->
      Format.fprintf ppf "invariant breach on p%d/r%d: %s" part idx detail
  | Not_linearizable { detail } -> Format.fprintf ppf "not linearizable: %s" detail
  | Unbounded { detail } -> Format.fprintf ppf "unbounded: %s" detail
  | Crashed { detail } -> Format.fprintf ppf "crashed: %s" detail

let pp_outcome ppf = function
  | Completed { completed } -> Format.fprintf ppf "ok (%d operations)" completed
  | Failed f -> pp_failure ppf f
