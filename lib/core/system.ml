open Heron_sim
open Heron_rdma
open Heron_multicast

(* One destination partition's open batch (pipeline batcher, DESIGN.md
   §12): requests stack newest-first with their enqueue instants until a
   size or timeout flush submits them as one multicast entry. *)
type ('req, 'resp) batch_acc = {
  mutable bb_reqs : (('req, 'resp) Replica.request * Time_ns.t) list;
  mutable bb_n : int;
  mutable bb_gen : int;  (* flush generation; invalidates stale timers *)
}

type ('req, 'resp) batcher = {
  ba_node : Fabric.node;
  ba_qps : (int, Qp.t) Hashtbl.t;  (* by client node id *)
  ba_accs : (int, ('req, 'resp) batch_acc) Hashtbl.t;  (* by partition *)
  ba_occupancy : Heron_obs.Metrics.histogram;  (* pipeline.batch_occupancy *)
  ba_wait : Heron_obs.Metrics.histogram;  (* pipeline.batch_wait_ns *)
  ba_full : Heron_obs.Metrics.counter;  (* pipeline.batch_flush_full *)
  ba_timeout : Heron_obs.Metrics.counter;  (* pipeline.batch_flush_timeout *)
}

type ('req, 'resp) t = {
  sys_eng : Engine.t;
  sys_fab : Fabric.t;
  sys_cfg : Config.t;
  sys_app : ('req, 'resp) App.t;
  sys_replicas : ('req, 'resp) Replica.t array array;
  sys_mcast : ('req, 'resp) Replica.msg Ramcast.t;
  sys_dir : Placement.t;
  sys_views : (int, Placement.view) Hashtbl.t;  (* per client node id *)
  sys_retries : Heron_obs.Metrics.counter;  (* reconfig.wrong_epoch_retries *)
  sys_batcher : ('req, 'resp) batcher option;
  sys_local_served : Heron_obs.Metrics.counter;  (* reads.local_served *)
  sys_lease_miss : Heron_obs.Metrics.counter;  (* reads.lease_miss *)
  sys_read_qps : (int * int, Qp.t) Hashtbl.t;
      (* fast-read client QPs, by (client node id, replica node id) *)
  sys_rr : int array;  (* fast-read round-robin cursor, per partition *)
  mutable sys_clients : int;
  mutable sys_jitter : int;  (* redirect-backoff jitter salt (deterministic) *)
}

let engine t = t.sys_eng
let fabric t = t.sys_fab
let config t = t.sys_cfg
let app t = t.sys_app
let replica t ~part ~idx = t.sys_replicas.(part).(idx)
let replicas t = t.sys_replicas
let multicast t = t.sys_mcast
let directory t = t.sys_dir

(* Serialized size of a message on the wire: payload plus the read-set
   object ids and the header for a request; the object list, the header
   and (for a split/merge) the replacement shard table for a
   migration. *)
let msg_size app = function
  | Replica.Req rq -> app.App.req_size rq.Replica.rq_payload + 32
  | Replica.Migrate mg ->
      48
      + (16 * List.length mg.Replica.mg_oids)
      + (match mg.Replica.mg_shards with
        | Some sm -> 24 * Heron_topology.Shard_map.count sm
        | None -> 0)
  | Replica.Lease _ -> 32
  | Replica.Batch reqs ->
      (* Per-request payloads and headers plus one batch header. *)
      Array.fold_left
        (fun acc rq -> acc + app.App.req_size rq.Replica.rq_payload + 32)
        16 reqs

(* Registered-store region size needed by one partition: cells of all
   registered objects homed (or replicated) there. Under live
   repartitioning any registered object may migrate in, so the region is
   sized for the whole catalog. *)
let region_size_for cfg specs ~part =
  let cell cap = 32 + (2 * cap) in
  let reconfig = cfg.Config.reconfig.Config.enabled in
  List.fold_left
    (fun acc spec ->
      match (spec.App.spec_klass, spec.App.spec_placement) with
      | Versioned_store.Local, _ -> acc
      | Versioned_store.Registered, App.Replicated -> acc + cell spec.App.spec_cap
      | Versioned_store.Registered, App.Partition p ->
          if reconfig || p = part then acc + cell spec.App.spec_cap else acc)
    0 specs

(* Register the catalog objects a partition homes at epoch 0 into a
   store: the objects [Placement.placement_under] places there under an
   epoch-0 view, plus every replicated object. With the elastic
   topology on, that view holds the deployment-time shard table. *)
let load_partition_catalog ~specs ~part ~view store =
  List.iter
    (fun spec ->
      let owned =
        match
          Placement.placement_under view
            (fun _ -> spec.App.spec_placement)
            spec.App.spec_oid
        with
        | App.Replicated -> true
        | App.Partition p -> p = part
      in
      if owned then
        Versioned_store.register store spec.App.spec_oid ~klass:spec.App.spec_klass
          ~cap:spec.App.spec_cap ~init:spec.App.spec_init)
    specs

let create eng ~cfg ~app =
  (let pl = cfg.Config.pipeline in
   if pl.Config.pipe_enabled then begin
     (* Zero executors would never drain an admitted request, and a
        batch size below 1 never triggers a size flush. *)
     if pl.Config.pipe_executors < 1 then
       invalid_arg "System.create: pipeline.pipe_executors must be at least 1";
     if pl.Config.pipe_batch_size < 1 then
       invalid_arg "System.create: pipeline.pipe_batch_size must be at least 1"
   end);
  let fab = Fabric.create ~metrics:cfg.Config.metrics eng ~profile:cfg.Config.profile in
  let specs = app.App.catalog () in
  if cfg.Config.topology.Config.topo_enabled then begin
    (* Splits ride the Migrate machinery (exclusive slot, redirect
       chasing, whole-catalog regions), and a split re-homes keys by
       hash alone — Local-class partition state would be left behind. *)
    if not cfg.Config.reconfig.Config.enabled then
      invalid_arg "System.create: topology.topo_enabled requires reconfig.enabled";
    List.iter
      (fun spec ->
        match (spec.App.spec_klass, spec.App.spec_placement) with
        | Versioned_store.Local, App.Partition _ ->
            invalid_arg
              (Printf.sprintf
                 "System.create: topology.topo_enabled requires Registered \
                  partition-placed objects (oid %d is Local)"
                 (Oid.to_int spec.App.spec_oid))
        | _ -> ())
      specs
  end;
  let sys_dir = Placement.create ?shards:(Config.initial_shards cfg) () in
  let groups =
    Array.init cfg.Config.partitions (fun part ->
        Array.init cfg.Config.replicas (fun idx ->
            Fabric.add_node fab ~name:(Printf.sprintf "p%d-r%d" part idx)))
  in
  (* The ordering layer reads (trace id, root span id) straight out of
     the request payload, so the Skeen rounds need no side channel. *)
  let tracing =
    Option.map
      (fun col ->
        ( col,
          function
          | Replica.Req rq when rq.Replica.rq_trace <> 0 ->
              [ (rq.Replica.rq_trace, rq.Replica.rq_parent) ]
          | Replica.Batch reqs ->
              Array.fold_right
                (fun rq acc ->
                  if rq.Replica.rq_trace <> 0 then
                    (rq.Replica.rq_trace, rq.Replica.rq_parent) :: acc
                  else acc)
                reqs []
          | Replica.Req _ | Replica.Migrate _ | Replica.Lease _ -> [] ))
      cfg.Config.reqtrace
  in
  let sys_mcast =
    Ramcast.create ~config:cfg.Config.mcast ?tracing fab
      ~size_of:(fun m -> msg_size app m)
      ~groups
  in
  let sys_replicas =
    Array.mapi
      (fun part row ->
        let region = region_size_for cfg specs ~part + 64 in
        Array.mapi
          (fun idx node ->
            Replica.create ~cfg ~app ~mcast:sys_mcast ~part ~idx ~node
              ~store_region_size:region)
          row)
      groups
  in
  Array.iter
    (fun row -> Array.iter (fun r -> Replica.set_directory r sys_replicas) row)
    sys_replicas;
  (* Load the catalog as the directory places it at epoch 0. *)
  let view = Placement.view sys_dir in
  Array.iteri
    (fun part row ->
      Array.iter
        (fun r -> load_partition_catalog ~specs ~part ~view (Replica.store r))
        row)
    sys_replicas;
  Array.iter
    (Array.iter (fun r ->
         Ramcast.set_deliver sys_mcast ~gid:(Replica.part r) ~idx:(Replica.idx r)
           ~applied:(fun () -> Replica.last_applied r)
           (fun dv -> Mailbox.send (Replica.inbox r) dv)))
    sys_replicas;
  if cfg.Config.reconfig.Config.enabled then
    Placement.attach_metrics sys_dir cfg.Config.metrics;
  let sys_batcher =
    if cfg.Config.pipeline.Config.pipe_enabled then begin
      let reg = cfg.Config.metrics in
      Some
        {
          ba_node = Fabric.add_node fab ~name:"batcher";
          ba_qps = Hashtbl.create 16;
          ba_accs = Hashtbl.create 8;
          ba_occupancy = Heron_obs.Metrics.histogram reg "pipeline.batch_occupancy";
          ba_wait = Heron_obs.Metrics.histogram reg "pipeline.batch_wait_ns";
          ba_full = Heron_obs.Metrics.counter reg "pipeline.batch_flush_full";
          ba_timeout = Heron_obs.Metrics.counter reg "pipeline.batch_flush_timeout";
        }
    end
    else None
  in
  { sys_eng = eng; sys_fab = fab; sys_cfg = cfg; sys_app = app; sys_replicas;
    sys_mcast; sys_dir; sys_views = Hashtbl.create 8;
    sys_retries =
      Heron_obs.Metrics.counter cfg.Config.metrics "reconfig.wrong_epoch_retries";
    sys_batcher;
    sys_local_served = Heron_obs.Metrics.counter cfg.Config.metrics "reads.local_served";
    sys_lease_miss = Heron_obs.Metrics.counter cfg.Config.metrics "reads.lease_miss";
    sys_read_qps = Hashtbl.create 32;
    sys_rr = Array.make cfg.Config.partitions 0;
    sys_clients = 0;
    sys_jitter = 0 }

(* Read-lease granter (DESIGN.md §14): one fiber per replica, looping
   grant-then-sleep. The grant's absolute expiry is stamped {e before}
   the multicast, so ordering latency only shrinks the usable window —
   never extends it — and carries the holder's current incarnation, so
   a grant ordered before a crash can never validate the next
   incarnation. The fiber runs on the replica's node: it dies with a
   crash and is respawned (with the bumped epoch) by
   [restart_replica].

   Renewal requires progress: no new grant until the replica has
   applied the previous one. A healthy replica always has — grants are
   ordered units, applied within one ordering latency — but a replica
   wedged in its delivery path must not be renewed: every commit-wait
   in the deployment blocks on a valid holder's stale frontier, and
   renewing a holder that is not applying extends that stall forever
   (the grant itself would sit unapplied behind the wedge). Withholding
   renewal lets the lease expire, bounding the stall at the lease
   length, after which the rest of the system proceeds — and the
   resulting traffic is what refills the wedged replica's coordination
   slots and frees it. *)
let spawn_granter t r =
  let fr = t.sys_cfg.Config.fast_reads in
  let node = Replica.node r in
  Fabric.spawn_on node (fun () ->
      (* Expiry of the most recent grant issued by this granter
         incarnation. Expiries are stamped from the virtual clock, so
         they are strictly increasing across grants; the replica's own
         table entry reaching it proves the grant was applied. *)
      let last_expiry = ref 0 in
      let rec loop () =
        let applied_last_grant =
          match
            Read_lease.entry (Replica.lease_table r) ~idx:(Replica.idx r)
          with
          | None -> !last_expiry = 0
          | Some e -> e.Read_lease.le_expiry_ns >= !last_expiry
        in
        if applied_last_grant then begin
          let expiry = Engine.now t.sys_eng + fr.Config.fr_lease_ns in
          ignore
            (Ramcast.multicast t.sys_mcast ~from:node ~dst:[ Replica.part r ]
               (Replica.Lease
                  {
                    Replica.lg_part = Replica.part r;
                    lg_idx = Replica.idx r;
                    lg_incarnation = Fabric.epoch node;
                    lg_expiry_ns = expiry;
                  }));
          last_expiry := expiry
        end;
        Engine.sleep fr.Config.fr_renew_ns;
        loop ()
      in
      loop ())

let start t =
  Ramcast.start t.sys_mcast;
  Array.iter (fun row -> Array.iter Replica.start row) t.sys_replicas;
  if t.sys_cfg.Config.fast_reads.Config.fr_enabled then
    Array.iter (fun row -> Array.iter (spawn_granter t) row) t.sys_replicas

let restart_replica t ~part ~idx =
  let old = t.sys_replicas.(part).(idx) in
  let node = Replica.node old in
  if Fabric.is_alive node then
    invalid_arg "System.restart_replica: replica is not crashed";
  Fabric.recover node;
  let specs = t.sys_app.App.catalog () in
  let region = region_size_for t.sys_cfg specs ~part + 64 in
  let fresh =
    Replica.create ~cfg:t.sys_cfg ~app:t.sys_app ~mcast:t.sys_mcast ~part ~idx
      ~node ~store_region_size:region
  in
  (* Epoch-0 ownership, like [create]: anything a split or migration
     re-homed since then arrives with the donor's snapshot. *)
  load_partition_catalog ~specs ~part
    ~view:(Placement.fresh_view ?shards:(Config.initial_shards t.sys_cfg) ())
    (Replica.store fresh);
  (* Peers address coordination/state/store memory through the shared
     directory matrix; the in-place swap repoints them all. *)
  t.sys_replicas.(part).(idx) <- fresh;
  Replica.set_directory fresh t.sys_replicas;
  Ramcast.restart_member t.sys_mcast ~gid:part ~idx
    ~applied:(fun () -> Replica.last_applied fresh)
    ~deliver:(fun dv -> Mailbox.send (Replica.inbox fresh) dv);
  (* Transfer from the beginning of time: the store is empty, so a
     delta from any later point would keep cold objects at their
     catalog values. Any consistent donor snapshot suffices for the
     cover — [restart_member] re-delivers every entry past the donor's
     applied prefix into the fresh inbox, and the replica skips the
     covered ones when it starts. Insisting on more (say, the dispatch
     horizon) can deadlock: a donor wedged in Phase 2 of an entry
     cannot apply past it until this replica rejoins coordination. *)
  let earliest = Tstamp.make ~clock:1 ~uid:1 in
  Fabric.spawn_on node (fun () ->
      Replica.force_state_transfer fresh ~failed_tmp:earliest;
      Replica.start fresh;
      Fabric.spawn_on node (fun () -> Replica.watch_coordination fresh);
      (* Grant only after the transfer: a lease granted to a replica
         still adopting state would have writers commit-waiting on a
         frontier it cannot publish yet. *)
      if t.sys_cfg.Config.fast_reads.Config.fr_enabled then
        spawn_granter t fresh)

let new_client_node t ~name =
  t.sys_clients <- t.sys_clients + 1;
  Fabric.add_node t.sys_fab ~name

(* A client's cached placement view, created at epoch 0 (the static
   oracle) and refreshed from the directory on wrong-epoch redirects. *)
let client_view t node =
  let key = Fabric.node_id node in
  match Hashtbl.find_opt t.sys_views key with
  | Some v -> v
  | None ->
      let v = Placement.fresh_view ?shards:(Config.initial_shards t.sys_cfg) () in
      Hashtbl.replace t.sys_views key v;
      v

(* {1 Pipeline batcher (DESIGN.md §12)}

   Single-partition requests accumulate per destination partition and go
   out as one [Replica.Batch] multicast entry — one Skeen round, one
   replication write and one commit per batch instead of per command. A
   batch flushes when it reaches [pipe_batch_size] or [pipe_flush_timeout_ns]
   after its first request arrived, whichever comes first; the timer
   bounds queueing delay at low load. Multi-partition requests bypass
   the batcher entirely (see Config.pipeline). *)

let batcher_qp b ~from =
  let key = Fabric.node_id from in
  match Hashtbl.find_opt b.ba_qps key with
  | Some qp -> qp
  | None ->
      let qp = Qp.connect ~src:from ~dst:b.ba_node in
      Hashtbl.replace b.ba_qps key qp;
      qp

let batcher_flush t b ~part acc ~cause =
  if acc.bb_n > 0 then begin
    let items = Array.of_list (List.rev acc.bb_reqs) in
    acc.bb_reqs <- [];
    acc.bb_n <- 0;
    acc.bb_gen <- acc.bb_gen + 1;
    let n = Array.length items in
    Heron_obs.Metrics.observe b.ba_occupancy n;
    (match cause with
    | `Full -> Heron_obs.Metrics.incr b.ba_full
    | `Timeout -> Heron_obs.Metrics.incr b.ba_timeout);
    let now = Engine.now t.sys_eng in
    let col = t.sys_cfg.Config.reqtrace in
    Array.iter
      (fun ((rq : _ Replica.request), enq) ->
        Heron_obs.Metrics.observe b.ba_wait (now - enq);
        match col with
        | Some col when rq.Replica.rq_trace <> 0 ->
            ignore
              (Heron_obs.Reqtrace.add_span col ~trace:rq.Replica.rq_trace
                 ~parent:rq.Replica.rq_parent ~stage:"batch.wait"
                 ~attrs:[ ("part", string_of_int part) ]
                 ~start:enq now)
        | _ -> ())
      items;
    let reqs = Array.map fst items in
    ignore
      (Ramcast.multicast t.sys_mcast ~slots:n ~from:b.ba_node ~dst:[ part ]
         (Replica.Batch reqs))
  end

(* Runs on the client's fiber: the request hops to the batcher node (a
   modelled transfer, so the wire cost stays) and joins the open batch;
   the client then blocks on its reply ivars as usual. Flushes run on
   the batcher's own fibers — [Engine.schedule] callbacks must not
   block, and a full-triggered flush must not charge its multicast round
   to the enqueueing client. *)
let batcher_enqueue t b ~from ~part rq =
  Qp.transfer (batcher_qp b ~from)
    ~bytes_len:(t.sys_app.App.req_size rq.Replica.rq_payload + 32);
  let pl = t.sys_cfg.Config.pipeline in
  let acc =
    match Hashtbl.find_opt b.ba_accs part with
    | Some a -> a
    | None ->
        let a = { bb_reqs = []; bb_n = 0; bb_gen = 0 } in
        Hashtbl.replace b.ba_accs part a;
        a
  in
  acc.bb_reqs <- (rq, Engine.now t.sys_eng) :: acc.bb_reqs;
  acc.bb_n <- acc.bb_n + 1;
  if acc.bb_n = pl.Config.pipe_batch_size then
    (* Exactly-once per fill: counts pass through the threshold one
       increment at a time. Arrivals between this spawn and the flush
       running join the same batch. *)
    Fabric.spawn_on b.ba_node (fun () -> batcher_flush t b ~part acc ~cause:`Full)
  else if acc.bb_n = 1 then begin
    let gen = acc.bb_gen in
    Engine.schedule ~delay:pl.Config.pipe_flush_timeout_ns t.sys_eng (fun () ->
        if acc.bb_gen = gen then
          Fabric.spawn_on b.ba_node (fun () ->
              (* Re-check: a size flush may have won between the timer
                 firing and this fiber running. *)
              if acc.bb_gen = gen then batcher_flush t b ~part acc ~cause:`Timeout))
  end

(* {1 Lease-protected local reads (DESIGN.md §14)}

   A read-only single-partition request skips the multicast entirely:
   the client picks a replica of the home partition round-robin, pays
   one request transfer, and the replica serves from its local store if
   its lease covers the read. Any replica of the partition qualifies —
   reads fan out across all of them — and a lease miss falls back to
   the ordered path. *)

let read_qp t ~from ~dst =
  let key = (Fabric.node_id from, Fabric.node_id dst) in
  match Hashtbl.find_opt t.sys_read_qps key with
  | Some qp -> qp
  | None ->
      let qp = Qp.connect ~src:from ~dst in
      Hashtbl.replace t.sys_read_qps key qp;
      qp

(* One fast-read attempt: round-robin over the partition's replica
   slots (re-reading the live array on every attempt — a restart swaps
   the slot), skipping dead nodes and broken connections. The first
   replica that answers decides: a lease miss means fall back to the
   ordered path immediately rather than shopping around — the miss
   causes (in-recovery, expired leases, in-flight writes past the
   frontier) mostly afflict the whole partition at once, and the
   ordered path is the bounded-latency recourse. *)
let fast_read_round t ~from ~part payload =
  let n = t.sys_cfg.Config.replicas in
  let start = t.sys_rr.(part) in
  t.sys_rr.(part) <- (start + 1) mod n;
  let req_bytes = t.sys_app.App.req_size payload + 32 in
  let rec go attempt =
    if attempt >= n then None
    else begin
      let r = t.sys_replicas.(part).((start + attempt) mod n) in
      let node = Replica.node r in
      if not (Fabric.is_alive node) then go (attempt + 1)
      else
        match
          let qp = read_qp t ~from ~dst:node in
          Qp.transfer qp ~bytes_len:req_bytes;
          match Replica.try_serve_read r payload with
          | Some resp ->
              Qp.transfer qp ~bytes_len:(t.sys_app.App.resp_size resp + 16);
              `Served resp
          | None -> `Miss
        with
        | `Served resp -> Some resp
        | `Miss -> None
        | exception Qp.Rdma_exception _ ->
            Hashtbl.remove t.sys_read_qps (Fabric.node_id from, Fabric.node_id node);
            go (attempt + 1)
    end
  in
  go 0

(* One multicast round: returns the per-partition replies (first reply
   per partition wins, replicas answer redundantly). [trace]/[parent]
   are the request-scoped trace id and root span id (0 when the
   deployment does not trace).

   The request record outlives the round in the multicast log, so the
   reply slots hang off a ref that is emptied once every reply is in:
   the log then retains the payload but not the ivars and responses,
   and a late redundant reply finds no slot. *)
let submit_round t ~from ~dst ~trace ~parent payload =
  let slots = ref (List.map (fun p -> (p, Ivar.create ())) dst) in
  let replies = !slots in
  let rq =
    {
      Replica.rq_payload = payload;
      rq_dst = dst;
      rq_submitted = Engine.now t.sys_eng;
      rq_client_node = from;
      rq_reply =
        (fun ~part resp ->
          match List.assoc_opt part !slots with
          | Some iv -> ignore (Ivar.try_fill iv resp)
          | None -> ());
      rq_trace = trace;
      rq_parent = parent;
    }
  in
  (match (t.sys_batcher, dst) with
  | Some b, [ part ] -> batcher_enqueue t b ~from ~part rq
  | _ -> ignore (Ramcast.multicast t.sys_mcast ~from ~dst (Replica.Req rq)));
  let resps = List.map (fun (p, iv) -> (p, Ivar.read iv)) replies in
  slots := [];
  resps

(* Submit and retry on wrong-epoch redirects: refresh the cached view
   from the directory, recompute the destination set and resubmit. The
   replicas' decision is uniform (all destinations redirect or none
   does), so a mixed outcome is impossible; if the refresh observed no
   new epoch — the migration that redirected us has not committed to
   the directory yet — back off briefly before retrying.

   With tracing on, the whole retry chain is one trace: each redirected
   round gets a [redirect] span covering the wasted round plus the view
   refresh and backoff (the round's ordering spans nest inside it), and
   the trace finishes when the replies of the successful round are in. *)
let submit_loop t ~from ~dst payload =
  let col = t.sys_cfg.Config.reqtrace in
  let trace, parent =
    match col with
    | None -> (0, 0)
    | Some col ->
        Heron_obs.Reqtrace.start_trace col
          ~attrs:[ ("client", Fabric.node_name from) ]
          ~now:(Engine.now t.sys_eng) ()
  in
  let rec go ~dst =
    let round_start = Engine.now t.sys_eng in
    let replies = submit_round t ~from ~dst ~trace ~parent payload in
    let redirected =
      List.exists (function _, Replica.Redirect _ -> true | _ -> false) replies
    in
    if not redirected then begin
      (match col with
      | Some col when trace <> 0 ->
          Heron_obs.Reqtrace.finish col ~trace ~now:(Engine.now t.sys_eng)
      | _ -> ());
      List.map
        (fun (p, rep) ->
          match rep with
          | Replica.Reply resp -> (p, resp)
          | Replica.Redirect _ -> assert false)
        replies
    end
    else begin
      Heron_obs.Metrics.incr t.sys_retries;
      let view = client_view t from in
      let before = Placement.epoch view in
      Placement.copy_view ~src:(Placement.view t.sys_dir) ~dst:view;
      if Placement.epoch view = before then begin
        (* Jittered backoff: the migration behind the redirect has not
           committed yet, and every redirected client lands here in the
           same virtual instant — a fixed pause would retry them all in
           lockstep on the same tick, redirecting the whole herd again.
           Half the configured backoff is the floor, the rest a
           deterministic hash of (client node, retry ordinal). *)
        let b = t.sys_cfg.Config.costs.Config.redirect_backoff_ns in
        t.sys_jitter <- t.sys_jitter + 1;
        let j =
          Heron_topology.Ring.mix
            (Fabric.node_id from + (t.sys_jitter * 0x9E37))
        in
        Engine.sleep ((b / 2) + (j mod (max 1 b)))
      end;
      let dst' =
        match
          Placement.destinations view t.sys_app
            ~partitions:t.sys_cfg.Config.partitions payload
        with
        | d -> d
        | exception Invalid_argument _ -> dst
      in
      (match col with
      | Some col when trace <> 0 ->
          ignore
            (Heron_obs.Reqtrace.add_span col ~trace ~parent ~stage:"redirect"
               ~attrs:[ ("epoch", string_of_int (Placement.epoch view)) ]
               ~start:round_start (Engine.now t.sys_eng))
      | _ -> ());
      go ~dst:dst'
    end
  in
  let fr = t.sys_cfg.Config.fast_reads in
  match dst with
  | [ part ] when fr.Config.fr_enabled && t.sys_app.App.read_only payload -> (
      let t0 = Engine.now t.sys_eng in
      match fast_read_round t ~from ~part payload with
      | Some resp ->
          Heron_obs.Metrics.incr t.sys_local_served;
          (match col with
          | Some col when trace <> 0 ->
              ignore
                (Heron_obs.Reqtrace.add_span col ~trace ~parent ~stage:"read.local"
                   ~attrs:[ ("part", string_of_int part) ]
                   ~start:t0 (Engine.now t.sys_eng));
              Heron_obs.Reqtrace.finish col ~trace ~now:(Engine.now t.sys_eng)
          | _ -> ());
          [ (part, resp) ]
      | None ->
          Heron_obs.Metrics.incr t.sys_lease_miss;
          (match col with
          | Some col when trace <> 0 ->
              ignore
                (Heron_obs.Reqtrace.add_span col ~trace ~parent
                   ~stage:"read.fallback"
                   ~attrs:[ ("part", string_of_int part) ]
                   ~start:t0 (Engine.now t.sys_eng))
          | _ -> ());
          go ~dst)
  | _ -> go ~dst

let submit_to t ~from ~dst payload = submit_loop t ~from ~dst payload

let submit t ~from payload =
  let dst =
    Placement.destinations (client_view t from) t.sys_app
      ~partitions:t.sys_cfg.Config.partitions payload
  in
  submit_loop t ~from ~dst payload
