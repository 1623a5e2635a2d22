open Heron_sim
open Heron_rdma
open Heron_multicast

type 'resp reply = Reply of 'resp | Redirect of { epoch : int }

type ('req, 'resp) request = {
  rq_payload : 'req;
  rq_dst : int list;
  rq_submitted : Time_ns.t;
  rq_client_node : Fabric.node;
  rq_reply : part:int -> 'resp reply -> unit;
  rq_trace : int;
  rq_parent : int;
}

type migration = {
  mg_epoch : int;
  mg_src : int;
  mg_dst : int;
  mg_oids : (Oid.t * int) list;  (* object and its cell capacity *)
  mg_shards : Heron_topology.Shard_map.t option;
      (* a shard split or merge (DESIGN.md §15): the full replacement
         shard table, installed instead of per-object overrides; the
         oid list still drives the destination's cell pulls *)
  mg_client_node : Fabric.node;
  mg_done : part:int -> unit;
  mg_trace : int;  (* reqtrace id minted by the orchestrator; 0 untraced *)
  mg_parent : int;
}

type lease_grant = {
  lg_part : int;  (* the granter's partition (also the multicast dst) *)
  lg_idx : int;  (* replica index the lease is granted to *)
  lg_incarnation : int;  (* Fabric.epoch of the holder at grant time *)
  lg_expiry_ns : Time_ns.t;  (* absolute expiry on the virtual clock *)
}

type ('req, 'resp) msg =
  | Req of ('req, 'resp) request
  | Migrate of migration
  | Batch of ('req, 'resp) request array
      (* one multicast entry carrying several same-destination requests
         (the pipeline batcher, DESIGN.md §12): ordered once, expanded
         into per-request timestamps (base uid + slot) at delivery *)
  | Lease of lease_grant
      (* a read-lease grant (DESIGN.md §14), multicast to the holder's
         own partition so every replica applies it at the same position
         of the delivery order *)

(* Slot [i] of a batch entry executes at the entry's clock with the
   i-th uid of the contiguous range the submitter reserved
   (Ramcast.multicast ~slots): distinct per request — dual versioning
   needs distinct tags — and identically ordered at every delivering
   group. *)
let batch_slot_tmp (base : Tstamp.t) i =
  if i = 0 then base
  else Tstamp.make ~clock:base.Tstamp.clock ~uid:(base.Tstamp.uid + i)

(* Registry handles, resolved once per replica at creation. Replicas of
   one deployment share the config's registry, and every series carries
   the replica's [part] and [idx] labels: a restarted replica resolves
   its slot's series again, and readers merge label sets through
   [Metrics.find] (DESIGN.md §8). *)
type obs = {
  ob_ordering : Heron_obs.Metrics.histogram;  (* replica.ordering_ns *)
  ob_exec : Heron_obs.Metrics.histogram;  (* replica.exec_ns *)
  ob_wait_all_delay : Heron_obs.Metrics.histogram;  (* coord.wait_all_delay_ns *)
  ob_phase2_wait : Heron_obs.Metrics.histogram;  (* coord.phase2_wait_ns *)
  ob_phase4_wait : Heron_obs.Metrics.histogram;  (* coord.phase4_wait_ns *)
  ob_laggers : Heron_obs.Metrics.counter;  (* coord.lagger_detections *)
  ob_transfers : Heron_obs.Metrics.counter;  (* coord.state_transfers *)
  ob_transfer_bytes : Heron_obs.Metrics.counter;  (* coord.state_transfer_bytes *)
  ob_remote_miss : Heron_obs.Metrics.counter;  (* store.dual_version_miss *)
  ob_executed : Heron_obs.Metrics.counter;  (* replica.executed *)
  ob_skipped : Heron_obs.Metrics.counter;  (* replica.skipped_deliveries *)
  ob_redirects : Heron_obs.Metrics.counter;  (* reconfig.redirects *)
  ob_migrations_applied : Heron_obs.Metrics.counter;  (* reconfig.migrations_applied *)
  ob_checkpoints : Heron_obs.Metrics.counter;  (* durability.checkpoints *)
  ob_truncated : Heron_obs.Metrics.counter;  (* durability.truncated_entries *)
  ob_log_len : Heron_obs.Metrics.histogram;  (* durability.log_len *)
  ob_mcast_log_len : Heron_obs.Metrics.histogram;  (* durability.mcast_log_len *)
  ob_rejoin_state_bytes : Heron_obs.Metrics.counter;  (* durability.rejoin_bytes *)
  ob_bootstraps : Heron_obs.Metrics.counter;  (* durability.checkpoint_bootstraps *)
  ob_invalidation : Heron_obs.Metrics.histogram;  (* reads.invalidation_ns *)
}

let make_obs reg labels =
  let open Heron_obs in
  let counter = Metrics.counter reg ~labels and histogram = Metrics.histogram reg ~labels in
  {
    ob_ordering = histogram "replica.ordering_ns";
    ob_exec = histogram "replica.exec_ns";
    ob_wait_all_delay = histogram "coord.wait_all_delay_ns";
    ob_phase2_wait = histogram "coord.phase2_wait_ns";
    ob_phase4_wait = histogram "coord.phase4_wait_ns";
    ob_laggers = counter "coord.lagger_detections";
    ob_transfers = counter "coord.state_transfers";
    ob_transfer_bytes = counter "coord.state_transfer_bytes";
    ob_remote_miss = counter "store.dual_version_miss";
    ob_executed = counter "replica.executed";
    ob_skipped = counter "replica.skipped_deliveries";
    ob_redirects = counter "reconfig.redirects";
    ob_migrations_applied = counter "reconfig.migrations_applied";
    ob_checkpoints = counter "durability.checkpoints";
    ob_truncated = counter "durability.truncated_entries";
    ob_log_len = histogram "durability.log_len";
    ob_mcast_log_len = histogram "durability.mcast_log_len";
    ob_rejoin_state_bytes = counter "durability.rejoin_bytes";
    ob_bootstraps = counter "durability.checkpoint_bootstraps";
    ob_invalidation = histogram "reads.invalidation_ns";
  }

(* One outbound coordination fan-out, queued to the coordination-writer
   fiber when the pipeline is on. *)
type coord_job = { cj_tmp : Tstamp.t; cj_dst : int list; cj_stage : int }

(* A checkpoint (DESIGN.md §13): the replica's store as of one applied
   frontier, snapshotted in a single event-loop turn through the same
   encode path a state-transfer donor uses. Registered cells ship raw
   (both dual versions), local-class values at their newest version at
   or below the frontier. Serialization of the local values is paid at
   checkpoint time, off any later rejoin's critical path. *)
type checkpoint = {
  ck_frontier : Tstamp.t;  (* every update <= this is captured *)
  ck_reg : (Oid.t * bytes) list;
  ck_loc : (Oid.t * (bytes * Tstamp.t)) list;
  ck_loc_bytes : int;  (* serialized footprint of ck_loc *)
  ck_bytes : int;  (* total shippable footprint *)
}

type ('req, 'resp) t = {
  r_cfg : Config.t;
  r_app : ('req, 'resp) App.t;
  r_part : int;
  r_idx : int;
  r_span_attrs : (string * string) list;
      (* [part] and [idx], built once: the labels of the replica's
         metric series and of every request span (traced runs retain
         these spans, after-reply ones included) *)
  r_node : Fabric.node;
  r_store : Versioned_store.t;
  r_coord : Coord_mem.t;
  r_sync : Statesync_mem.t;
  r_log : Update_log.t;
  r_inbox : ('req, 'resp) msg Ramcast.delivery Mailbox.t;
  mutable r_last_req : Tstamp.t;
  mutable r_last_applied : Tstamp.t;
      (* last request whose writes are fully in the store; trails
         r_last_req while a request is being executed. The state
         transfer donor must ship state consistent with a request
         boundary, so it snapshots this, not r_last_req. *)
  mutable r_peers : ('req, 'resp) t array array;  (* [part].(idx); set later *)
  r_qps : (int, Qp.t) Hashtbl.t;  (* by destination node id *)
  r_addr_known : (Oid.t * int, unit) Hashtbl.t;  (* object_map cache *)
  r_view : Placement.view;
      (* this replica's placement view, advanced in delivery order when
         it executes a Migrate — identical across a partition's replicas
         at the same point of the order *)
  r_track : bool;  (* reconfig enabled: count accesses, accept Migrate *)
  r_access : (Oid.t, int) Hashtbl.t;  (* per-object access counts *)
  r_obs : obs;
  mutable r_pending_deser : int;  (* bytes to deserialize after a transfer *)
  mutable r_pending_view : Placement.view option;
      (* placement snapshot shipped by a state-transfer donor, adopted
         together with the synchronised prefix (not directly installed
         by the donor: the lagger's delivery loop must never observe a
         view ahead of its own frontier) *)
  r_lease : Read_lease.t;
      (* read-lease table and frontier-copy region (DESIGN.md §14);
         allocated unconditionally, touched only with fast reads on *)
  mutable r_pending_lease : Read_lease.snapshot option;
      (* lease-table snapshot shipped by a state-transfer donor, adopted
         with the prefix like [r_pending_view]: a rejoiner's empty table
         would otherwise let it acknowledge writes without waiting for
         leases granted before its adoption point *)
  mutable r_recovering : int;  (* state transfers currently in flight *)
  mutable r_exec_delay : Time_ns.t;  (* failure injection: extra exec cost *)
  mutable r_coord_mb : coord_job Mailbox.t option;
      (* when set, [announce] hands fan-outs to the coordination-writer
         fiber instead of posting inline (pipeline mode) *)
  mutable r_announced : Tstamp.t;  (* newest tmp this incarnation announced *)
  mutable r_coord_since : int;
      (* start of the coordination wait in progress, -1 when none; the
         delivery loop runs at most one at a time *)
  mutable r_ckpt : checkpoint option;  (* latest checkpoint (durability) *)
  r_mcast : ('req, 'resp) msg Ramcast.t;  (* the deployment's multicast *)
  r_eng : Engine.t;
}

exception Lagging
(* Internal: a remote read found no version older than the current
   request (Algorithm 2 line 23). *)

(* Update-log entries a replica retains before the oldest drop out. *)
let update_log_entries = 100_000

let create ~cfg ~app ~mcast ~part ~idx ~node ~store_region_size =
  let reg = cfg.Config.metrics in
  let labels = [ ("part", string_of_int part); ("idx", string_of_int idx) ] in
  let store = Versioned_store.create node ~region_size:store_region_size in
  let coord =
    Coord_mem.create node ~partitions:cfg.Config.partitions
      ~replicas:cfg.Config.replicas
  in
  Versioned_store.attach_metrics store reg;
  Coord_mem.attach_metrics coord reg;
  {
    r_cfg = cfg;
    r_app = app;
    r_part = part;
    r_idx = idx;
    r_span_attrs = labels;
    r_node = node;
    r_store = store;
    r_coord = coord;
    r_sync = Statesync_mem.create node ~replicas:cfg.Config.replicas;
    r_log = Update_log.create ~capacity:update_log_entries;
    r_inbox = Mailbox.create ();
    r_last_req = Tstamp.zero;
    r_last_applied = Tstamp.zero;
    r_peers = [||];
    r_qps = Hashtbl.create 16;
    r_addr_known = Hashtbl.create 1024;
    r_view = Placement.fresh_view ?shards:(Config.initial_shards cfg) ();
    r_track = cfg.Config.reconfig.Config.enabled;
    r_access = Hashtbl.create 64;
    r_obs = make_obs reg labels;
    r_pending_deser = 0;
    r_pending_view = None;
    r_lease = Read_lease.create node ~replicas:cfg.Config.replicas;
    r_pending_lease = None;
    r_recovering = 0;
    r_exec_delay = 0;
    r_coord_mb = None;
    r_announced = Tstamp.zero;
    r_coord_since = -1;
    r_ckpt = None;
    r_mcast = mcast;
    r_eng = Fabric.engine (Fabric.fabric_of node);
  }

let set_directory r peers = r.r_peers <- peers
let inbox r = r.r_inbox
let store r = r.r_store
let node r = r.r_node
let part r = r.r_part
let idx r = r.r_idx
let last_req r = r.r_last_req
let last_applied r = r.r_last_applied
let update_log r = r.r_log
let lease_table r = r.r_lease
let checkpoint_frontier r = Option.map (fun ck -> ck.ck_frontier) r.r_ckpt
let inject_exec_delay r d = r.r_exec_delay <- d
let placement_view r = r.r_view

(* Effective placement: the replica's epoch-versioned overrides layered
   over the app's static oracle (DESIGN.md §10). *)
let placement_of r oid = Placement.placement_under r.r_view r.r_app.App.placement_of oid

let is_local r oid =
  match placement_of r oid with
  | App.Partition h -> h = r.r_part
  | App.Replicated -> true

(* Per-object access counts feeding the rebalancer; only maintained when
   reconfig is enabled so the static system pays nothing. *)
let count_access r oid =
  if r.r_track then
    Hashtbl.replace r.r_access oid
      (1 + Option.value ~default:0 (Hashtbl.find_opt r.r_access oid))

let drain_access_counts r =
  let out = Hashtbl.fold (fun oid n acc -> (oid, n) :: acc) r.r_access [] in
  Hashtbl.reset r.r_access;
  out

(* Internal self-consistency, for the chaos harness. Each check is an
   always-true property of Algorithms 1-3 at any instant; the
   [quiescent] extras additionally assume no request is in flight (a
   donor snapshot legitimately ships a peer's in-progress writes, so
   store tags may transiently exceed [r_last_req] mid-recovery). *)
let check_invariants ?(quiescent = true) r =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pp t = Format.asprintf "%a" Tstamp.pp t in
  if Tstamp.(r.r_last_req < r.r_last_applied) then
    fail "last_applied %s ahead of last_req %s" (pp r.r_last_applied) (pp r.r_last_req)
  else if Tstamp.(r.r_last_req < Update_log.last_tmp r.r_log) then
    fail "update log reaches %s beyond last_req %s"
      (pp (Update_log.last_tmp r.r_log)) (pp r.r_last_req)
  else if Tstamp.(r.r_last_req < Update_log.truncation r.r_log) then
    fail "log truncation point %s beyond last_req %s"
      (pp (Update_log.truncation r.r_log)) (pp r.r_last_req)
  else if
    (let own, _ = Coord_mem.read_slot r.r_coord ~part:r.r_part ~idx:r.r_idx in
     Tstamp.(r.r_last_req < own))
  then
    fail "own coordination slot %s beyond last_req %s"
      (pp (fst (Coord_mem.read_slot r.r_coord ~part:r.r_part ~idx:r.r_idx)))
      (pp r.r_last_req)
  else
    let bad = ref None in
    List.iter
      (fun oid ->
        if !bad = None then begin
          (* Decode the raw cell rather than calling [lookup_before]: the
             latter counts misses into [store.dual_version_miss], and a
             checker must not perturb the metrics it runs alongside. *)
          let (_, ta), (_, tb) =
            Versioned_store.decode_cell (Versioned_store.encode_cell_of r.r_store oid)
          in
          let newest = if Tstamp.(tb <= ta) then ta else tb in
          (* Dual versioning keeps the two versions distinct: only the
             initial (zero, zero) pair may coincide. *)
          if Tstamp.equal ta tb && not (Tstamp.equal ta Tstamp.zero) then
            bad :=
              Some
                (Printf.sprintf "object %d lost its older version (both at %s)"
                   (Oid.to_int oid) (pp ta))
          else if quiescent && Tstamp.(r.r_last_req < newest) then
            bad :=
              Some
                (Printf.sprintf "object %d tagged %s beyond last_req %s"
                   (Oid.to_int oid) (pp newest) (pp r.r_last_req))
        end)
      (Versioned_store.registered_oids r.r_store);
    match !bad with None -> Result.Ok () | Some msg -> Error msg

(* Request-scoped causal span (DESIGN.md §11): recorded against the
   trace the client minted at submit, parented to its root span —
   containment nesting sorts overlapping stages out at analysis time,
   so stages need not thread each other's span ids. No-op for untraced
   requests and untraced deployments. *)
let req_span r req ~stage ~start stop =
  if req.rq_trace <> 0 then
    match r.r_cfg.Config.reqtrace with
    | None -> ()
    | Some col ->
        ignore
          (Heron_obs.Reqtrace.add_span col ~trace:req.rq_trace
             ~parent:req.rq_parent ~stage ~attrs:r.r_span_attrs ~start stop)

let qp_to r dst_node =
  let key = Fabric.node_id dst_node in
  match Hashtbl.find_opt r.r_qps key with
  | Some qp -> qp
  | None ->
      let qp = Qp.connect ~src:r.r_node ~dst:dst_node in
      Hashtbl.replace r.r_qps key qp;
      qp

let peer r ~part ~idx = r.r_peers.(part).(idx)
let n_replicas r = r.r_cfg.Config.replicas
let majority r = (n_replicas r / 2) + 1
let costs r = r.r_cfg.Config.costs

let deser_cost r bytes = bytes * (costs r).Config.deser_per_byte_x100 / 100
let ser_cost r bytes = bytes * (costs r).Config.ser_per_byte_x100 / 100
let charge_deser r bytes = Engine.consume (deser_cost r bytes)
let charge_ser r bytes = Engine.consume (ser_cost r bytes)

let wait_mem r pred = Signal.wait_until (Fabric.mem_signal r.r_node) pred

(* Wait until [pred] holds or the virtual clock reaches [deadline]. *)
let wait_mem_deadline r pred ~deadline =
  let delay = deadline - Engine.now r.r_eng in
  if delay > 0 then
    Engine.schedule ~delay r.r_eng (fun () ->
        Signal.broadcast (Fabric.mem_signal r.r_node));
  wait_mem r (fun () -> pred () || Engine.now r.r_eng >= deadline)

(* Write one slot image into every replica of every partition in
   [parts]: our own copy is the raw local store [local], every other
   copy one WQE to [addr q] carrying [payload]. All WQEs go out as one
   doorbell-batched list — one [post_ns] per coalesce group — and share
   the payload, encoded once by the caller ([Doorbell.ring] snapshots
   it at post time). [charge] adds the [coord_post_ns] WQE-preparation
   cost once per fan-out that has a remote WQE; announce, lease and
   frontier fan-outs pay it, state-sync fan-outs do not. *)
let fan_out r ~parts ~local ~addr ~payload ~charge =
  let batch = Qp.Doorbell.create () in
  List.iter
    (fun h ->
      for i = 0 to n_replicas r - 1 do
        let q = peer r ~part:h ~idx:i in
        if q == r then local ()
        else Qp.Doorbell.add batch (qp_to r q.r_node) (addr q) payload
      done)
    parts;
  if charge && Qp.Doorbell.length batch > 0 then
    Engine.consume (costs r).Config.coord_post_ns;
  Qp.Doorbell.ring batch

(* {1 Read leases (DESIGN.md §14)} *)

let fast_reads r = r.r_cfg.Config.fast_reads

(* Fan this replica's applied frontier out to every same-partition
   peer's lease region (self-write local), tagged with our incarnation
   so copies published by a previous incarnation never count. Each
   fan-out is one doorbell-batched WQE list, like a coordination
   announce; the payload is encoded once and shared. Ends with a local
   signal broadcast: the self slot is a raw store, and a commit-wait on
   this very node may be blocked on it. *)
let lease_publish r tmp =
  let epoch = Fabric.epoch r.r_node in
  fan_out r ~parts:[ r.r_part ]
    ~local:(fun () -> Read_lease.write_copy_local r.r_lease ~idx:r.r_idx tmp ~epoch)
    ~addr:(fun q -> Read_lease.copy_addr q.r_lease ~idx:r.r_idx)
    ~payload:(Read_lease.encode_copy tmp ~epoch)
    ~charge:true;
  Signal.broadcast (Fabric.mem_signal r.r_node)

(* Publish the current applied frontier if fast reads are on. May
   suspend (the doorbell charge), so every caller must finish its state
   updates — frontier store, completion-queue pops, view installs —
   before calling; the frontier value itself is re-read here so a batch
   of completions publishes once, at its final value. *)
let publish_applied r =
  if (fast_reads r).Config.fr_enabled then lease_publish r r.r_last_applied

(* A peer blocks acknowledging [tmp] when it holds a valid lease —
   unexpired, and granted to the peer's current incarnation (a crashed
   or restarted holder can never serve under an old grant again, since
   epochs only grow) — but has not yet published an applied frontier at
   or past [tmp] under that incarnation. Returns the earliest expiry
   among blocking holders, [None] when none blocks. *)
let lease_block r ~tmp ~now =
  let earliest = ref None in
  for i = 0 to n_replicas r - 1 do
    if i <> r.r_idx then
      match Read_lease.entry r.r_lease ~idx:i with
      | None -> ()
      | Some e ->
          let q = peer r ~part:r.r_part ~idx:i in
          if
            now < e.Read_lease.le_expiry_ns
            && Fabric.is_alive q.r_node
            && Fabric.epoch q.r_node = e.Read_lease.le_incarnation
          then begin
            let f, f_epoch = Read_lease.read_copy r.r_lease ~idx:i in
            if f_epoch <> e.Read_lease.le_incarnation || Tstamp.(f < tmp) then
              match !earliest with
              | Some x when x <= e.Read_lease.le_expiry_ns -> ()
              | Some _ | None -> earliest := Some e.Read_lease.le_expiry_ns
          end
  done;
  !earliest

(* Commit-wait: block until no valid lease holder lags [tmp]. Gating
   {e every} acknowledgement on this — single- and multi-partition,
   read-only or not, and migration completions — is what makes a local
   read at any valid holder linearizable: a committed write (or any
   reply exposing one) implies every holder had applied it first, and a
   holder serves only values its own applied frontier covers. The wait
   runs on reply fibers, never on the delivery loop, so executors and
   barriers are not stalled; it cannot deadlock because a replica
   publishes its frontier when it applies, before its reply fiber
   waits. Crashed, restarted and expired holders drop out of
   [lease_block], bounding any stall at the lease length. *)
let commit_wait r ~tmp =
  let fr = fast_reads r in
  if fr.Config.fr_enabled && fr.Config.fr_write_wait then begin
    let t0 = Engine.now r.r_eng in
    let rec go () =
      match lease_block r ~tmp ~now:(Engine.now r.r_eng) with
      | None -> ()
      | Some expiry ->
          wait_mem_deadline r
            (fun () -> lease_block r ~tmp ~now:(Engine.now r.r_eng) = None)
            ~deadline:expiry;
          go ()
    in
    go ();
    let waited = Engine.now r.r_eng - t0 in
    if waited > 0 then Heron_obs.Metrics.observe r.r_obs.ob_invalidation waited
  end

(* The stable frontier: the minimum applied frontier over this replica
   and every peer currently holding a valid lease (same validity test
   as [lease_block]). A version at or below it has been applied by
   every replica able to serve a fast read, so no later local read can
   observe an older value; a version above it is still inside some
   commit-wait window — applied here, possibly not at a valid peer —
   and serving it would let two reads of the same object straddle an
   unacknowledged write across replicas. Peer copies only lag their
   true frontiers, so staleness makes the bound lower (more misses),
   never unsafe. *)
let stable_frontier r ~now =
  let bound = ref r.r_last_applied in
  for i = 0 to n_replicas r - 1 do
    if i <> r.r_idx then
      match Read_lease.entry r.r_lease ~idx:i with
      | None -> ()
      | Some e ->
          let q = peer r ~part:r.r_part ~idx:i in
          if
            now < e.Read_lease.le_expiry_ns
            && Fabric.is_alive q.r_node
            && Fabric.epoch q.r_node = e.Read_lease.le_incarnation
          then begin
            let f, f_epoch = Read_lease.read_copy r.r_lease ~idx:i in
            let f =
              if f_epoch <> e.Read_lease.le_incarnation then Tstamp.zero else f
            in
            if Tstamp.(f < !bound) then bound := f
          end
  done;
  !bound

(* {1 Coordination (Algorithm 1, Phases 2 and 4)} *)

(* Write (tmp, stage) into our slot of every replica of every involved
   partition; self-coordination is a local write. *)
let announce_now r ~tmp ~dst ~stage =
  fan_out r ~parts:dst
    ~local:(fun () ->
      Coord_mem.write_local r.r_coord ~part:r.r_part ~idx:r.r_idx tmp ~stage)
    ~addr:(fun q -> Coord_mem.slot_addr q.r_coord ~part:r.r_part ~idx:r.r_idx)
    ~payload:(Coord_mem.encode_slot tmp ~stage)
    ~charge:true

(* With the pipeline's coordination writer running, hand the fan-out to
   it; otherwise post inline. Delegation is safe because the writer is a
   single fiber draining a FIFO — per-replica slot announcements stay in
   submission order, which the [Coord_mem.reached] monotonicity argument
   relies on — and because coordination posts to dead peers are dropped,
   never raised, so the writer cannot die on a crash. *)
let announce r ~tmp ~dst ~stage =
  if Tstamp.(r.r_announced < tmp) then r.r_announced <- tmp;
  match r.r_coord_mb with
  | Some mb -> Mailbox.send mb { cj_tmp = tmp; cj_dst = dst; cj_stage = stage }
  | None -> announce_now r ~tmp ~dst ~stage

(* Coordination-writer stage (DESIGN.md §12): owns every outbound
   announce so the sequencer and executors never pay [coord_post_ns] or
   doorbell charges on their own critical path. After each fan-out it
   broadcasts this node's memory signal: the local slot write in
   [announce_now] is a raw store, and the fiber inside [coordinate] that
   queued the job may already be waiting on its own slot. *)
let coord_writer_loop r mb =
  let rec loop () =
    let job = Mailbox.recv mb in
    announce_now r ~tmp:job.cj_tmp ~dst:job.cj_dst ~stage:job.cj_stage;
    Signal.broadcast (Fabric.mem_signal r.r_node);
    loop ()
  in
  loop ()

(* One coordination phase: announce, wait for a majority per involved
   partition, then apply the configured tail policy. Wait_all feeds the
   Table I instrumentation (delayed transactions and their delay).

   Reached counts are cached monotonically across wakeups: for a fixed
   (tmp, stage) a slot's [reached] can only flip to true, so each
   wakeup rescans just the slots not yet seen instead of all
   partitions × replicas — and the polling charge after the majority
   observation covers only those remaining slots. *)
let coordinate r ~tmp ~dst ~stage ~(wait : Config.coord_wait) =
  let t_begin = Engine.now r.r_eng in
  r.r_coord_since <- t_begin;
  announce r ~tmp ~dst ~stage;
  let n = n_replicas r in
  let track = List.map (fun h -> (h, Array.make n false, ref 0)) dst in
  let reached_upto target () =
    List.for_all
      (fun (h, seen, cnt) ->
        let i = ref 0 in
        while !cnt < target && !i < n do
          if (not seen.(!i)) && Coord_mem.reached r.r_coord ~part:h ~idx:!i ~tmp ~stage
          then begin
            seen.(!i) <- true;
            incr cnt
          end;
          incr i
        done;
        !cnt >= target)
      track
  in
  let check_cost () =
    let unseen = List.fold_left (fun acc (_, _, cnt) -> acc + (n - !cnt)) 0 track in
    (costs r).Config.coord_check_slot_ns * unseen
  in
  wait_mem r (reached_upto (majority r));
  (match wait with
  | Config.Majority -> ()
  | Config.Grace grace ->
      (* One polling iteration separates the majority observation from
         the all-replicas check. *)
      Engine.consume (check_cost ());
      if not (reached_upto n ()) then begin
        let deadline = Engine.now r.r_eng + grace in
        wait_mem_deadline r (reached_upto n) ~deadline
      end
  | Config.Wait_all ->
      Engine.consume (check_cost ());
      if reached_upto n () then ()
      else begin
        let t0 = Engine.now r.r_eng in
        wait_mem r (reached_upto n);
        Heron_obs.Metrics.observe r.r_obs.ob_wait_all_delay (Engine.now r.r_eng - t0)
      end);
  r.r_coord_since <- -1;
  let hist =
    if stage = 1 then r.r_obs.ob_phase2_wait else r.r_obs.ob_phase4_wait
  in
  Heron_obs.Metrics.observe hist (Engine.now r.r_eng - t_begin)

(* A restarted replica's coordination memory starts zeroed, and every
   announcement a peer posted while it was down was dropped. Entries
   the multicast redelivers after the restart may be ones the peers
   already coordinated; once traffic stops, no later announcement lands
   to pass them, and the replica would wait in their Phase 2 forever.
   Each peer keeps its own latest announcement in its own memory, so
   one read per peer recovers everything missed: slots only move
   forward, and whatever a peer announces after the restart lands
   directly. The watch acts only on a wait stuck for a whole
   state-transfer timeout, so a rejoiner kept moving by traffic never
   reads. *)
let refresh_coordination r =
  Array.iter
    (Array.iter (fun q ->
         if q != r then
           match
             Qp.read (qp_to r q.r_node)
               (Coord_mem.slot_addr q.r_coord ~part:q.r_part ~idx:q.r_idx)
               ~len:Coord_mem.slot_bytes
           with
           | img -> Coord_mem.merge_slot r.r_coord ~part:q.r_part ~idx:q.r_idx img
           | exception Qp.Rdma_exception _ -> ()))
    r.r_peers;
  Signal.broadcast (Fabric.mem_signal r.r_node)

let watch_coordination r =
  let timeout = r.r_cfg.Config.statesync_timeout_ns in
  let rec loop () =
    Engine.sleep timeout;
    if r.r_coord_since >= 0 && Engine.now r.r_eng - r.r_coord_since >= timeout then
      refresh_coordination r;
    loop ()
  in
  loop ()

(* Write one statesync slot image into every replica of the group (self
   included). *)
let sync_fanout r ~slot_idx tmp ~status =
  fan_out r ~parts:[ r.r_part ]
    ~local:(fun () -> Statesync_mem.write_local r.r_sync ~idx:slot_idx tmp ~status)
    ~addr:(fun q -> Statesync_mem.slot_addr q.r_sync ~idx:slot_idx)
    ~payload:(Statesync_mem.encode_slot tmp ~status)
    ~charge:false

(* {1 State transfer (Algorithm 3)} *)

(* Lagger side: request a transfer from the group and block until a
   donor reports completion, then adopt the synchronised prefix.

   [failed_tmp] is the point the transfer must reach back to — the
   donor ships every object updated at or after it. [cover] is how far
   the adopted state must extend before it is usable; normally the two
   coincide (the failed read), but a restarted replica needs everything
   from the beginning of time ([failed_tmp] minimal) while insisting
   the donor has applied past the group's dispatch horizon ([cover]),
   because entries before the horizon are never redelivered. Keeping
   one timestamp for both roles transfers too little: a delta from the
   horizon misses any object last written before it, which an empty
   store silently keeps at its catalog value. *)
let rec initiate_state_transfer_locked r ~failed_tmp ~cover =
  Heron_obs.Metrics.incr r.r_obs.ob_laggers;
  sync_fanout r ~slot_idx:r.r_idx failed_tmp ~status:1;
  (* The request lives only in the group's statesync slots: a member
     that was down during the fanout (its wiped slot reads idle) or
     that crashes while queued to serve forgets it. Re-publish once
     every candidate's turn has gone by unanswered, so the current
     incarnations of the group see it. *)
  let served () = snd (Statesync_mem.read_slot r.r_sync ~idx:r.r_idx) = 0 in
  let republish_ns =
    max 1 (n_replicas r - 1) * r.r_cfg.Config.statesync_timeout_ns
  in
  let rec await () =
    wait_mem_deadline r served ~deadline:(Engine.now r.r_eng + republish_ns);
    if not (served ()) then begin
      sync_fanout r ~slot_idx:r.r_idx failed_tmp ~status:1;
      await ()
    end
  in
  await ();
  (* Non-serialized data shipped by the donor must be deserialized
     before resuming (Figure 8's second scenario). *)
  if r.r_pending_deser > 0 then begin
    charge_deser r r.r_pending_deser;
    r.r_pending_deser <- 0
  end;
  let rid, _ = Statesync_mem.read_slot r.r_sync ~idx:r.r_idx in
  (* Adopt the donor's placement snapshot in the same turn as the
     frontier: deliveries decided under the old view are all at or
     before [rid] and will be skipped. *)
  (match r.r_pending_view with
  | Some v ->
      if Placement.epoch v > Placement.epoch r.r_view then
        Placement.copy_view ~src:v ~dst:r.r_view;
      r.r_pending_view <- None
  | None -> ());
  (* The donor's lease-table snapshot covers every grant at or before
     [rid]; later grants are redelivered and applied normally. *)
  (match r.r_pending_lease with
  | Some snap ->
      Read_lease.adopt r.r_lease snap;
      r.r_pending_lease <- None
  | None -> ());
  if Tstamp.(r.r_last_req < rid) then r.r_last_req <- rid;
  if Tstamp.(r.r_last_applied < rid) then begin
    r.r_last_applied <- rid;
    (* Adopted state reached [rid] without our log recording the
       corresponding updates: the log has a hole up to [rid] and must
       not serve delta transfers reaching behind it. *)
    Update_log.note_gap r.r_log ~upto:rid
  end;
  (* Writers may already be commit-waiting on this incarnation's
     frontier copy; publish the adopted frontier before resuming. *)
  publish_applied r;
  (* The donor had not reached the failed request yet: its state cannot
     cover it, so ask again (it keeps executing meanwhile). *)
  if Tstamp.(rid < cover) then begin
    Engine.sleep r.r_cfg.Config.statesync_timeout_ns;
    initiate_state_transfer_locked r ~failed_tmp ~cover
  end
  else
    (* The adopted state includes every request up to [rid], and this
       replica skips them all without announcing them. A peer in Phase
       2 or 4 of a covered multi-partition request then counts this
       replica as missing until a later announcement of ours passes
       [rid]; if the traffic stops first, it waits forever. So when no
       such announcement came within a state-transfer timeout, announce
       the covered prefix done (Phase 4 reached) in every partition.
       Slots still only move forward: every earlier announcement is
       below [rid], and [announce] keeps the coordination writer's FIFO
       order. *)
    Fabric.spawn_on r.r_node (fun () ->
        Engine.sleep r.r_cfg.Config.statesync_timeout_ns;
        if Tstamp.(r.r_announced < rid) then
          announce r ~tmp:rid ~dst:(List.init (Array.length r.r_peers) Fun.id) ~stage:2)

(* [r_recovering] brackets the whole episode, retries included: the
   chaos driver reads it to keep crash injection inside the failure
   model (killing the last replica that applied a suffix while its
   peers are still synchronising loses that suffix with only one
   nominal failure). *)
let initiate_state_transfer r ~failed_tmp ~cover =
  r.r_recovering <- r.r_recovering + 1;
  Fun.protect
    ~finally:(fun () -> r.r_recovering <- r.r_recovering - 1)
    (fun () -> initiate_state_transfer_locked r ~failed_tmp ~cover)

let in_recovery r = r.r_recovering > 0

let force_state_transfer ?cover r ~failed_tmp =
  initiate_state_transfer r ~failed_tmp
    ~cover:(match cover with Some c -> c | None -> failed_tmp)

(* Donor side: ship the objects the lagger misses, 32 KB per RDMA
   write; registered cells land directly in the lagger's store,
   local-class values are serialized here and deserialized there. *)
let do_transfer r ~lagger_idx ~failed_tmp =
  let lagger = peer r ~part:r.r_part ~idx:lagger_idx in
  (* Snapshot the state to ship in a single event-loop turn (no
     suspension points): [upto] and the copied values then describe one
     instant, with at most the single in-flight request per object
     beyond [upto] — which dual versioning absorbs. Copy first, sleep
     through the wire transfer after. *)
  let upto = r.r_last_applied in
  let full = not (Update_log.covers r.r_log ~from:failed_tmp) in
  (* Checkpoint bootstrap (DESIGN.md §13): when the log cannot cover
     the request (restart from the beginning of time, or a delta range
     behind our truncation point) and we hold a checkpoint whose
     frontier the log does reach back to, ship the checkpoint plus the
     O(delta) log suffix instead of re-encoding the whole store — and
     pay serialization only for the delta (the checkpoint's was paid
     when it was taken). A donor that itself just truncated still
     serves this way: truncation never advances past its own
     checkpoint frontier, so the guard below only fails when the gap
     came from an adopted transfer ([note_gap] beyond the checkpoint),
     in which case the plain full path below remains correct. *)
  let bootstrap =
    if full then
      match r.r_ckpt with
      | Some ck
        when Tstamp.(Update_log.truncation r.r_log <= ck.ck_frontier)
             && Tstamp.(ck.ck_frontier <= upto) ->
          Some ck
      | Some _ | None -> None
    else None
  in
  let partition_by_klass oids =
    List.partition
      (fun oid -> Versioned_store.klass_of r.r_store oid = Versioned_store.Registered)
      oids
  in
  let encode_reg oids =
    List.map (fun oid -> (oid, Versioned_store.encode_cell_of r.r_store oid)) oids
  in
  (* Ship local-class values as of the snapshot point; objects created
     by an in-flight request beyond it are skipped (the lagger creates
     them itself when it executes that request). *)
  let snapshot_loc oids =
    List.filter_map
      (fun oid ->
        match Versioned_store.get_at_most r.r_store oid ~bound:upto with
        | Some (v, tmp) -> Some (oid, (v, tmp))
        | None -> None)
      oids
  in
  let loc_footprint vs =
    List.fold_left (fun acc (_, (v, _)) -> acc + Bytes.length v + 24) 0 vs
  in
  let reg_cells, loc_values, ser_bytes =
    match bootstrap with
    | Some ck ->
        let delta = Update_log.oids_after r.r_log ~after:ck.ck_frontier ~upto in
        let in_delta = Hashtbl.create (max 16 (List.length delta)) in
        List.iter (fun oid -> Hashtbl.replace in_delta oid ()) delta;
        let dreg, dloc = partition_by_klass delta in
        let dloc_values = snapshot_loc dloc in
        (* Delta cells supersede the checkpoint's for the same object. *)
        let keep (oid, _) = not (Hashtbl.mem in_delta oid) in
        ( List.filter keep ck.ck_reg @ encode_reg dreg,
          List.filter keep ck.ck_loc @ dloc_values,
          loc_footprint dloc_values )
    | None ->
        let oids =
          if full then
            Versioned_store.registered_oids r.r_store
            @ Versioned_store.local_oids r.r_store
          else Update_log.oids_in_range r.r_log ~from:failed_tmp ~upto
        in
        let reg, loc = partition_by_klass oids in
        let loc_values = snapshot_loc loc in
        (encode_reg reg, loc_values, loc_footprint loc_values)
  in
  (* Snapshot the placement view in the same turn: it must describe the
     same instant as [upto] (exec_migration installs the epoch and marks
     the command applied without suspending in between). *)
  let plc = Placement.fresh_view () in
  Placement.copy_view ~src:r.r_view ~dst:plc;
  (* The lease table rides along under the same single-turn snapshot
     argument: it describes the same instant as [upto] (grants are
     applied, like migrations, with no suspension between table update
     and frontier advance). *)
  let lease_snap = Read_lease.snapshot r.r_lease in
  let reg_bytes =
    List.fold_left (fun acc (_, cell) -> acc + Bytes.length cell) 0 reg_cells
  in
  let loc_bytes = loc_footprint loc_values in
  let plc_bytes =
    Placement.wire_bytes plc + Read_lease.snapshot_bytes lease_snap
  in
  charge_ser r ser_bytes;
  let qp = qp_to r lagger.r_node in
  let chunk = (costs r).Config.transfer_chunk_bytes in
  let rec ship remaining =
    if remaining > 0 then begin
      Qp.transfer qp ~bytes_len:(min remaining chunk);
      ship (remaining - chunk)
    end
  in
  (try
     ship (reg_bytes + loc_bytes + plc_bytes);
     List.iter
       (fun (oid, cell) ->
         (* A freshly restarted lagger loads only the static catalog;
            register any migrated-in object before landing its cell
            (the capacity is recoverable from the cell layout). *)
         if not (Versioned_store.mem lagger.r_store oid) then
           Versioned_store.register lagger.r_store oid
             ~klass:Versioned_store.Registered
             ~cap:((Bytes.length cell - 32) / 2)
             ~init:Bytes.empty;
         Versioned_store.write_raw_cell lagger.r_store oid cell)
       reg_cells;
     List.iter
       (fun (oid, (v, tmp)) -> Versioned_store.set lagger.r_store oid v ~tmp)
       loc_values;
     lagger.r_pending_view <- Some plc;
     lagger.r_pending_lease <- Some lease_snap;
     lagger.r_pending_deser <- lagger.r_pending_deser + loc_bytes;
     Heron_obs.Metrics.incr r.r_obs.ob_transfers;
     Heron_obs.Metrics.add r.r_obs.ob_transfer_bytes
       (reg_bytes + loc_bytes + plc_bytes);
     (* Rejoin cost accounting (DESIGN.md §13): every full-history
        transfer counts, checkpoint-served or not, so durability on and
        off compare directly. *)
     if full then begin
       Heron_obs.Metrics.add r.r_obs.ob_rejoin_state_bytes
         (reg_bytes + loc_bytes + plc_bytes);
       if Option.is_some bootstrap then
         Heron_obs.Metrics.incr r.r_obs.ob_bootstraps
     end;
     (* Report completion to the whole group (Algorithm 3 lines 16-17). *)
     sync_fanout r ~slot_idx:lagger_idx upto ~status:0
   with Qp.Rdma_exception _ -> (* lagger died mid-transfer *) ())

(* Watch our state-transfer memory for requests from laggers and run
   the deterministic donor selection (Algorithm 3 lines 7-22). *)
let statesync_watcher r =
  let n = n_replicas r in
  let handling = Array.make n false in
  let pending_request j =
    j <> r.r_idx && (not handling.(j))
    && snd (Statesync_mem.read_slot r.r_sync ~idx:j) = 1
  in
  let rec loop () =
    wait_mem r (fun () ->
        let found = ref false in
        for j = 0 to n - 1 do
          if pending_request j then found := true
        done;
        !found);
    for j = 0 to n - 1 do
      if pending_request j then begin
        handling.(j) <- true;
        Fabric.spawn_on r.r_node (fun () ->
            (* Deterministic candidate order: (j+1) mod n, (j+2) ...;
               each candidate waits its turn and acts if the slot still
               shows an unserved request — even one newer than the
               request it woke up for. Declining a superseded request
               can strand the lagger: our re-detection loop is only
               re-evaluated when a fresh write lands in our memory, and
               a lagger blocked on its slot writes nothing further. *)
            let order = List.init (n - 1) (fun k -> (j + 1 + k) mod n) in
            let rec pos i = function
              | [] -> i
              | c :: rest -> if c = r.r_idx then i else pos (i + 1) rest
            in
            let my_pos = pos 0 order in
            Engine.sleep (my_pos * r.r_cfg.Config.statesync_timeout_ns);
            let tmp', status' = Statesync_mem.read_slot r.r_sync ~idx:j in
            (* Serve only if our own applied state covers the request:
               completing a transfer with older state would satisfy the
               slot without helping the lagger, and a group of mutual
               laggers would then bounce stale snapshots between each
               other forever while a fresher donor never gets asked.
               Declining leaves the slot pending for the next
               candidate's turn (or the lagger's re-publish). *)
            if status' = 1 && Tstamp.(tmp' <= r.r_last_applied) then
              do_transfer r ~lagger_idx:j ~failed_tmp:tmp';
            handling.(j) <- false)
      end
    done;
    loop ()
  in
  loop ()

(* {1 Checkpointing and update-log compaction (DESIGN.md §13)}

   A per-replica fiber (spawned by [start] when Config.durability is
   on) periodically snapshots the store, publishes the checkpoint
   frontier to the partition's replicas through coordination memory,
   and truncates the update log behind the slowest {e live} replica's
   published frontier. Any live donor's checkpoint then provably
   covers everything truncated anywhere in the partition, so a
   rejoiner can always bootstrap from checkpoint + O(delta) suffix.
   The multicast reclaims its own log behind the applied frontiers
   (Ramcast.log_retained); the round only samples what it retains. *)

(* Fan the checkpoint frontier out to every replica of our partition
   (self-write local), exactly like a coordination announce. *)
let publish_frontier r tmp =
  fan_out r ~parts:[ r.r_part ]
    ~local:(fun () ->
      Coord_mem.write_frontier_local r.r_coord ~part:r.r_part ~idx:r.r_idx tmp)
    ~addr:(fun q -> Coord_mem.frontier_addr q.r_coord ~part:r.r_part ~idx:r.r_idx)
    ~payload:(Coord_mem.encode_frontier tmp)
    ~charge:true

(* Snapshot the whole store as of [r_last_applied], in a single
   event-loop turn (no suspension points) — the same consistency
   argument as the donor snapshot in [do_transfer]: the frontier and
   the copied values describe one instant, with at most the single
   in-flight write per object beyond it, which dual versioning
   absorbs. Crash-mid-checkpoint is safe by construction: either the
   assignment of [r_ckpt] happened or the old checkpoint stands. *)
let take_checkpoint r =
  let frontier = r.r_last_applied in
  let ck_reg =
    List.map
      (fun oid -> (oid, Versioned_store.encode_cell_of r.r_store oid))
      (Versioned_store.registered_oids r.r_store)
  in
  let ck_loc =
    List.filter_map
      (fun oid ->
        match Versioned_store.get_at_most r.r_store oid ~bound:frontier with
        | Some (v, tmp) -> Some (oid, (v, tmp))
        | None -> None)
      (Versioned_store.local_oids r.r_store)
  in
  let reg_bytes =
    List.fold_left (fun acc (_, cell) -> acc + Bytes.length cell) 0 ck_reg
  in
  let loc_bytes =
    List.fold_left (fun acc (_, (v, _)) -> acc + Bytes.length v + 24) 0 ck_loc
  in
  {
    ck_frontier = frontier;
    ck_reg;
    ck_loc;
    ck_loc_bytes = loc_bytes;
    ck_bytes = reg_bytes + loc_bytes;
  }

(* The slowest live replica's published checkpoint frontier (own
   partition), our own included. Dead peers are skipped: their slots
   are stale, and their next incarnation bootstraps from a live donor
   whose applied state is at or past any frontier this minimum can
   return. A peer that never published reads [Tstamp.zero] and blocks
   truncation — conservative, never unsafe. *)
let min_live_frontier r ~own =
  let acc = ref own in
  for i = 0 to n_replicas r - 1 do
    if i <> r.r_idx then begin
      let q = peer r ~part:r.r_part ~idx:i in
      if Fabric.is_alive q.r_node then begin
        let f = Coord_mem.read_frontier r.r_coord ~part:r.r_part ~idx:i in
        if Tstamp.(f < !acc) then acc := f
      end
    end
  done;
  !acc

let checkpoint_round r =
  let col = r.r_cfg.Config.reqtrace in
  let t0 = Engine.now r.r_eng in
  let ck_trace, ck_root =
    match col with
    | Some col ->
        Heron_obs.Reqtrace.start_trace col
          ~attrs:
            [ ("kind", "ckpt"); ("part", string_of_int r.r_part);
              ("idx", string_of_int r.r_idx) ]
          ~now:t0 ()
    | None -> (0, 0)
  in
  let ckpt_span ~stage ~start stop =
    match col with
    | Some col when ck_trace <> 0 ->
        ignore
          (Heron_obs.Reqtrace.add_span col ~trace:ck_trace ~parent:ck_root ~stage
             ~start stop)
    | Some _ | None -> ()
  in
  let ck = take_checkpoint r in
  r.r_ckpt <- Some ck;
  Heron_obs.Metrics.incr r.r_obs.ob_checkpoints;
  (* Serialization of the local-class values is paid now, not when a
     rejoiner later needs them. *)
  charge_ser r ck.ck_loc_bytes;
  let t1 = Engine.now r.r_eng in
  ckpt_span ~stage:"ckpt.snapshot" ~start:t0 t1;
  publish_frontier r ck.ck_frontier;
  let upto = min_live_frontier r ~own:ck.ck_frontier in
  let t2 = Engine.now r.r_eng in
  if Tstamp.(Tstamp.zero < upto) then begin
    let dropped = Update_log.truncate r.r_log ~upto in
    if dropped > 0 then Heron_obs.Metrics.add r.r_obs.ob_truncated dropped;
    (* Access-counter history behind the truncation point is gone with
       it; the rebalancer only loses already-stale samples. *)
    if r.r_track then Hashtbl.reset r.r_access;
    Heron_obs.Metrics.observe r.r_obs.ob_mcast_log_len
      (Ramcast.log_retained r.r_mcast ~gid:r.r_part ~idx:r.r_idx);
    ckpt_span ~stage:"ckpt.truncate" ~start:t2 (Engine.now r.r_eng)
  end;
  Heron_obs.Metrics.observe r.r_obs.ob_log_len (Update_log.length r.r_log);
  match col with
  | Some col when ck_trace <> 0 ->
      Heron_obs.Reqtrace.finish col ~trace:ck_trace ~now:(Engine.now r.r_eng)
  | Some _ | None -> ()

(* Checkpoint fiber: one round per configured interval. Rounds are
   skipped while a state transfer is in flight (the applied frontier
   and store are mid-adoption) and before anything was applied. *)
let checkpoint_loop r =
  let interval = max 1_000 r.r_cfg.Config.durability.Config.dur_interval_ns in
  let rec loop () =
    Engine.sleep interval;
    if (not (in_recovery r)) && Tstamp.(Tstamp.zero < r.r_last_applied) then
      checkpoint_round r;
    loop ()
  in
  loop ()

(* {1 Execution (Algorithm 2)} *)

(* Modelled query_obj_addr (Algorithm 2 lines 8-13): one round trip to
   the partition, after which the addresses of the object in every
   replica of [h] are cached. *)
let ensure_addr_known r oid ~h =
  let q0 = peer r ~part:h ~idx:0 in
  if not (Hashtbl.mem r.r_addr_known (oid, Fabric.node_id q0.r_node)) then begin
    Engine.consume r.r_cfg.Config.addr_query_ns;
    for i = 0 to n_replicas r - 1 do
      let q = peer r ~part:h ~idx:i in
      Hashtbl.replace r.r_addr_known (oid, Fabric.node_id q.r_node) ()
    done
  end

(* Fetch an object's raw dual-version cell from a replica of [h] that
   coordinated Phase 2 of [tmp]. Failed replicas are skipped on RDMA
   exceptions. Candidate selection scans two preallocated arrays — no
   per-attempt list allocation — and [tried] is reset explicitly when
   the whole candidate set has failed. Shared by remote reads
   (Algorithm 2) and migration pulls (DESIGN.md §10), which both need a
   cell consistent with the Phase-2 cut of the request they execute. *)
(* [bound], when set, demands a cell image as of the cut [bound]:
   versions at or past it are dropped from the returned image, a donor
   retaining none is skipped like a failed replica, and when every
   reached donor has moved past the cut the fetch raises {!Lagging} —
   the frozen value no longer exists at the source and only a state
   transfer (whose donor executed the migration) can cover it. Remote
   reads do not pass it: they bound-select client-side from the raw
   dual-version image and handle misses themselves. *)
let remote_fetch_cell ?bound r oid ~h ~tmp =
  ensure_addr_known r oid ~h;
  let rng = Engine.rng r.r_eng in
  let n = n_replicas r in
  let tried = Array.make n false in
  let candidates = Array.make n 0 in
  let bound_missed = ref false in
  let rec attempt ~tried_any =
    let n_cand = ref 0 in
    for i = 0 to n - 1 do
      if (not tried.(i)) && Coord_mem.reached r.r_coord ~part:h ~idx:i ~tmp ~stage:1
      then begin
        candidates.(!n_cand) <- i;
        incr n_cand
      end
    done;
    if !n_cand = 0 then begin
      if !bound_missed then raise Lagging;
      if tried_any then
        (* All candidates failed: reset and retry the full set. *)
        Array.fill tried 0 n false
      else
        (* Phase 2 guaranteed a majority; wait for the first slot. *)
        wait_mem r (fun () ->
            Coord_mem.count_reached ~stop_at:1 r.r_coord ~part:h ~replicas:n ~tmp
              ~stage:1
            > 0);
      attempt ~tried_any:false
    end
    else
      let i = candidates.(Random.State.int rng !n_cand) in
      let q = peer r ~part:h ~idx:i in
      if not (Versioned_store.mem q.r_store oid) then begin
        (* A freshly restarted peer wiped its store and has not
           re-registered a migrated-in object yet; its stale
           coordination slot made it a candidate. Skip it like a
           failed replica. *)
        tried.(i) <- true;
        attempt ~tried_any:true
      end
      else
        match
          Qp.read (qp_to r q.r_node)
            (Versioned_store.cell_addr q.r_store oid)
            ~len:(Versioned_store.cell_len q.r_store oid)
        with
        | raw -> (
            match bound with
            | None -> raw
            | Some b -> (
                match Versioned_store.truncate_raw_cell raw ~bound:b with
                | Some cell -> cell
                | None ->
                    (* The donor moved past the cut and overwrote both
                       versions — it can no longer serve the frozen
                       value. Try the remaining donors; a slower one
                       may still hold it. *)
                    bound_missed := true;
                    tried.(i) <- true;
                    attempt ~tried_any:true))
        | exception Qp.Rdma_exception _ ->
            tried.(i) <- true;
            attempt ~tried_any:true
  in
  attempt ~tried_any:false

(* {2 Execution charges}

   What one execution spends on reads, writes and application compute
   accrues as a debt owned by the call. One [Engine.consume] pays it
   just before the next step another fiber can observe: a store write,
   a one-sided remote read, an exception leaving [execute], or its
   return. Those steps keep the virtual instants they had when each
   charge was consumed on its own; the engine runs one event per step
   instead of one per charge. Own-store reads and [count_access] now
   happen when the debt starts, so a [drain_access_counts] inside the
   accrued window can find a call's counts split differently. *)
type debt = { mutable owed : Time_ns.t }

let owe debt d = if d > 0 then debt.owed <- debt.owed + d

let pay debt =
  if debt.owed > 0 then begin
    let d = debt.owed in
    debt.owed <- 0;
    Engine.consume d
  end

let read_cost r klass v =
  match klass with
  | Versioned_store.Registered -> deser_cost r (Bytes.length v)
  | Versioned_store.Local -> (costs r).Config.read_local_ns

(* Remote read with dual-version selection: take the freshest version
   older than the request; finding no old-enough version means we
   lag. *)
let remote_read r oid ~h ~tmp ~debt =
  pay debt;
  let raw = remote_fetch_cell r oid ~h ~tmp in
  let versions = Versioned_store.decode_cell raw in
  match Versioned_store.pick_version versions ~bound:tmp with
  | Some (v, _) ->
      owe debt (deser_cost r (Bytes.length v));
      v
  | None ->
      Heron_obs.Metrics.incr r.r_obs.ob_remote_miss;
      raise Lagging

(* A read of this replica's own store: [Some value], charged to the
   debt, or [None] if the object does not exist. [Lagging] if it
   exists only in versions at or past the request: a state transfer
   moved this replica's state ahead of the request it is executing,
   and the transfer covering those versions also covers the request. *)
let read_own r oid ~tmp ~debt =
  match Versioned_store.lookup_before r.r_store oid ~bound:tmp with
  | Versioned_store.Found (v, klass) ->
      owe debt (read_cost r klass v);
      Some v
  | Versioned_store.Absent -> None
  | Versioned_store.Too_new -> raise Lagging

(* Reading phase: prefetch every object of this partition's read
   plan. *)
let read_objects r req ~tmp ~debt =
  let plan = r.r_app.App.read_plan ~part:r.r_part req.rq_payload in
  let values = Hashtbl.create (List.length plan) in
  List.iter
    (fun oid ->
      if not (Hashtbl.mem values oid) then begin
        count_access r oid;
        match placement_of r oid with
        | App.Partition h when h <> r.r_part ->
            (* Remote Local-class objects cannot be read one-sidedly;
               the callback must guard them (partial execution). *)
            if r.r_app.App.klass_of oid = Versioned_store.Registered then
              Hashtbl.replace values oid (remote_read r oid ~h ~tmp ~debt)
        | App.Replicated | App.Partition _ -> (
            (* Local objects that do not exist (dynamic namespaces) are
               simply not prefetched; the callback sees them as
               absent. *)
            match read_own r oid ~tmp ~debt with
            | Some v -> Hashtbl.replace values oid v
            | None -> ())
      end)
    plan;
  values

(* Writing phase: apply buffered writes that belong to this partition,
   tag them with the request timestamp, and log them. *)
let write_objects r writes ~tmp ~debt =
  List.iter
    (fun (oid, v) ->
      let local =
        match placement_of r oid with
        | App.Partition h -> h = r.r_part
        | App.Replicated ->
            invalid_arg "Heron: applications must not write replicated objects"
      in
      if local then begin
        count_access r oid;
        owe debt
          (match Versioned_store.klass_of r.r_store oid with
          | Versioned_store.Registered -> ser_cost r (Bytes.length v)
          | Versioned_store.Local | (exception Not_found) ->
              (costs r).Config.write_local_ns);
        pay debt;
        Versioned_store.set r.r_store oid v ~tmp;
        Update_log.append r.r_log tmp oid
      end)
    (List.rev writes)

(* On-demand read of a local (or replicated) object during execution:
   [None] if the object does not exist. *)
let local_read_on_demand r values oid ~tmp ~debt =
  match Hashtbl.find_opt values oid with
  | Some v -> Some v
  | None ->
      count_access r oid;
      if not (is_local r oid) then
        invalid_arg
          (Printf.sprintf "Heron: remote object %d read outside the declared read set"
             (Oid.to_int oid));
      let v = read_own r oid ~tmp ~debt in
      Option.iter (Hashtbl.replace values oid) v;
      v

let execute r req ~tmp =
  Engine.consume ((costs r).Config.exec_base_ns + r.r_exec_delay);
  (* Runtime hiccups: rare multi-microsecond stalls (GC, cache), the
     noise source behind delayed transactions in Table I and the
     latency outliers in the paper's CDFs. *)
  let c = costs r in
  if c.Config.hiccup_pct > 0 then begin
    let rng = Engine.rng r.r_eng in
    if Random.State.int rng 100 < c.Config.hiccup_pct then
      Engine.consume (1_000 + Random.State.int rng (max 1 (c.Config.hiccup_max_ns - 1_000)))
  end;
  let debt = { owed = 0 } in
  match
    let values = read_objects r req ~tmp ~debt in
    let writes = ref [] in
    let ctx =
      {
        App.ctx_partition = r.r_part;
        ctx_tmp = tmp;
        ctx_read =
          (fun oid ->
            match local_read_on_demand r values oid ~tmp ~debt with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Heron: local object %d does not exist"
                     (Oid.to_int oid)));
        ctx_read_opt = (fun oid -> local_read_on_demand r values oid ~tmp ~debt);
        ctx_is_local = (fun oid -> is_local r oid);
        ctx_write = (fun oid v -> writes := (oid, v) :: !writes);
        ctx_charge = owe debt;
      }
    in
    let resp = r.r_app.App.execute ctx req.rq_payload in
    write_objects r !writes ~tmp ~debt;
    resp
  with
  | resp ->
      pay debt;
      resp
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      pay debt;
      Printexc.raise_with_backtrace e bt

(* Reply to the client: one transfer of the serialized response; the
   client keeps the first reply per partition. Wrong-epoch redirects
   carry just the replica's placement epoch and skip the commit-wait —
   a redirect exposes no state. *)
let send_reply r req ~tmp resp =
  let bytes =
    match resp with Reply v -> r.r_app.App.resp_size v | Redirect _ -> 8
  in
  let client = req.rq_client_node in
  Fabric.spawn_on r.r_node (fun () ->
      try
        (match resp with Reply _ -> commit_wait r ~tmp | Redirect _ -> ());
        Qp.transfer (qp_to r client) ~bytes_len:bytes;
        req.rq_reply ~part:r.r_part resp
      with Qp.Rdma_exception _ -> ())

(* {1 Request execution (Algorithm 1)} *)

(* Single-partition request: no coordination (Algorithm 1 lines 5-7).
   [on_applied] marks the request fully applied in the delivery loop's
   completion queue. *)
let exec_single r req ~tmp ~on_applied =
  let t0 = Engine.now r.r_eng in
  match execute r req ~tmp with
  | resp ->
      on_applied ();
      req_span r req ~stage:"execute" ~start:t0 (Engine.now r.r_eng);
      Heron_obs.Metrics.observe r.r_obs.ob_exec (Engine.now r.r_eng - t0);
      Heron_obs.Metrics.incr r.r_obs.ob_executed;
      send_reply r req ~tmp (Reply resp)
  | exception Lagging ->
      let ts0 = Engine.now r.r_eng in
      initiate_state_transfer r ~failed_tmp:tmp ~cover:tmp;
      req_span r req ~stage:"state-transfer" ~start:ts0 (Engine.now r.r_eng);
      on_applied ()

(* Multi-partition request: Phase 2, execute, Phase 4, reply — or, on a
   failed remote read, Algorithm 3. *)
let exec_multi r req ~tmp ~dst ~on_applied =
  let t0 = Engine.now r.r_eng in
  coordinate r ~tmp ~dst ~stage:1 ~wait:Config.Majority;
  let t1 = Engine.now r.r_eng in
  req_span r req ~stage:"phase2" ~start:t0 t1;
  match execute r req ~tmp with
  | resp ->
      on_applied ();
      let t2 = Engine.now r.r_eng in
      req_span r req ~stage:"execute" ~start:t1 t2;
      coordinate r ~tmp ~dst ~stage:2 ~wait:r.r_cfg.Config.wait_phase4;
      let t3 = Engine.now r.r_eng in
      req_span r req ~stage:"phase4" ~start:t2 t3;
      Heron_obs.Metrics.observe r.r_obs.ob_exec (t2 - t1);
      Heron_obs.Metrics.incr r.r_obs.ob_executed;
      send_reply r req ~tmp (Reply resp)
  | exception Lagging ->
      (* Algorithm 2 lines 23-25: synchronise and skip. The request only
         counts as applied once the transferred state (which covers it)
         has arrived. *)
      let ts0 = Engine.now r.r_eng in
      initiate_state_transfer r ~failed_tmp:tmp ~cover:tmp;
      req_span r req ~stage:"state-transfer" ~start:ts0 (Engine.now r.r_eng);
      on_applied ()

(* {1 Migration (DESIGN.md §10)}

   A [Migrate] command travels the ordinary multicast — to {e every}
   partition, so that any request shares a relative delivery order with
   it at all of its destinations and every replica makes the identical
   keep-or-redirect routing decision for every request. The Phase-2
   barrier fixes the cut: the destination partition pulls the objects'
   raw dual-version cells from source replicas that announced Phase 2
   (the same machinery as a remote read, so an in-flight pre-migration
   write is absorbed by dual versioning), then every partition installs
   the new placement epoch at the command's position in the order. *)

(* A split or merge installs its shard table instead of per-object
   overrides: the table already resolves the moved keys, and leaving no
   override behind is what lets a later merge restore the pre-split map
   exactly. *)
let placement_moves mg =
  match mg.mg_shards with
  | Some _ -> []
  | None -> List.map (fun (oid, _) -> (oid, mg.mg_dst)) mg.mg_oids

(* Acknowledge a migration to the orchestrator (a small fixed-size
   completion record, like a reply). Sent even when the command was
   covered by a state transfer: the adopted state includes its
   effects. *)
let notify_migration_done r mg ~tmp =
  Fabric.spawn_on r.r_node (fun () ->
      try
        (* Commit-wait before acknowledging: the directory epoch only
           commits after every partition acknowledged, so gating the
           acknowledgement on every valid lease holder having applied
           the migration keeps fast reads off migrated-away objects
           (the §10 migration freeze extended to the read path). *)
        commit_wait r ~tmp;
        Qp.transfer (qp_to r mg.mg_client_node) ~bytes_len:16;
        mg.mg_done ~part:r.r_part
      with Qp.Rdma_exception _ -> ())

let exec_migration r mg ~tmp ~dst ~on_applied =
  let t0 = Engine.now r.r_eng in
  (* Causal spans for the elastic orchestrator (DESIGN.md §15): the
     Phase-2 barrier is the split's freeze point, the cell pulls its
     bootstrap; both land in the trace the orchestrator minted. *)
  let mg_span stage ~start =
    match r.r_cfg.Config.reqtrace with
    | Some col when mg.mg_trace <> 0 ->
        ignore
          (Heron_obs.Reqtrace.add_span col ~trace:mg.mg_trace
             ~parent:mg.mg_parent ~stage
             ~attrs:[ ("part", string_of_int r.r_part) ]
             ~start (Engine.now r.r_eng))
    | _ -> ()
  in
  coordinate r ~tmp ~dst ~stage:1 ~wait:Config.Majority;
  mg_span "reshard.freeze" ~start:t0;
  if r.r_part = mg.mg_dst then begin
    let t_boot = Engine.now r.r_eng in
    (* Pull each object's raw cell from the source partition, bounded
       at the command's timestamp: both surviving versions ship, so
       post-migration reads bounded by pre-migration requests still
       resolve here, while a donor that already moved past the cut
       (this replica is a lagger and the object has since been written
       — or even migrated back and written) cannot leak post-cut
       values into the frozen copy. *)
    List.iter
      (fun (oid, cap) ->
        if not (Versioned_store.mem r.r_store oid) then
          Versioned_store.register r.r_store oid
            ~klass:Versioned_store.Registered ~cap ~init:Bytes.empty)
      mg.mg_oids;
    (try
       List.iter
         (fun (oid, _) ->
           let raw = remote_fetch_cell ~bound:tmp r oid ~h:mg.mg_src ~tmp in
           Versioned_store.write_raw_cell r.r_store oid raw;
           (* Record the arrival so delta state transfers from this
              replica ship the migrated-in object. *)
           Update_log.append r.r_log tmp oid)
         mg.mg_oids
     with Lagging ->
       (* No source replica retains the cut's value: this replica is so
          far behind that the source overwrote both versions (or lost
          the object to a later reshard). Synchronise instead — any
          donor able to cover [tmp] executed this migration, so the
          adopted store, update log and placement view all include its
          effects, and the installs below degrade to no-ops. *)
       let ts0 = Engine.now r.r_eng in
       initiate_state_transfer r ~failed_tmp:tmp ~cover:tmp;
       mg_span "reshard.sync" ~start:ts0);
    if mg.mg_oids <> [] then mg_span "reshard.bootstrap" ~start:t_boot
  end;
  (* Install the new epoch and mark the command applied with no
     suspension in between: a state-transfer donor snapshots
     (r_last_applied, placement view) in one event-loop turn and must
     see them consistent. *)
  Placement.install ?shards:mg.mg_shards r.r_view ~epoch:mg.mg_epoch
    ~moves:(placement_moves mg);
  on_applied ();
  Heron_obs.Metrics.incr r.r_obs.ob_migrations_applied;
  coordinate r ~tmp ~dst ~stage:2 ~wait:r.r_cfg.Config.wait_phase4;
  notify_migration_done r mg ~tmp

(* A request whose destination set was computed under an older placement
   than this replica's view: every replica of every destination answers
   with a redirect and none executes (the decision is identical
   everywhere — see the ordering argument above). Requests ordered
   {e before} the migration still execute under the old placement
   because the view only advances when the migration itself executes.
   Must be called with no suspension point after the delivery was
   dequeued, so the view cannot move between a peer's decision and
   ours. *)
let stale_routed r req =
  Placement.epoch r.r_view > 0
  && (match
        Placement.destinations r.r_view r.r_app
          ~partitions:r.r_cfg.Config.partitions req.rq_payload
      with
     | dst -> dst <> req.rq_dst
     | exception Invalid_argument _ ->
         (* Empty or out-of-range footprint: routing never consulted
            the placement (explicit-destination submit); execute. *)
         false)

let redirect r req ~tmp =
  Heron_obs.Metrics.incr r.r_obs.ob_redirects;
  send_reply r req ~tmp (Redirect { epoch = Placement.epoch r.r_view })

(* {1 The delivery loop (Algorithm 1, DESIGN.md §12)}

   One sequencer fiber drains committed deliveries in order, expands
   batches, and owns every per-unit decision: skips, lease grants, the
   migration barrier, the stale-route redirect, and the barrier in
   front of multi-partition and serial-hinted requests. The only
   configuration-dependent choice is how an eligible single-partition
   request runs: inline on the sequencer with the pipeline off (the
   paper's prototype), or with it on through the conflict index into a
   bounded queue drained by [pipe_executors] executor fibers (the
   paper's future-work multi-threaded execution, §III-D.1), next to a
   coordination-writer fiber owning outbound announces.

   Executors finish out of order, so [r_last_applied] advances through
   a completion queue, only over a prefix of the delivery order: a
   state-transfer donor snapshots a request boundary. Barriers exist
   because concurrent Phase-2/4 announcements from different executors
   could regress a replica's single coordination slot (peers rely on
   slot monotonicity), and because a migration must observe a frozen
   pool so the Phase-2 cut it fixes is request-boundary consistent.
   Footprints come from the application's read plan and write sketch;
   the write sketch must contain an object that serialises any two
   requests whose dynamically created objects could collide (TPCC's
   district row plays that role for order-id allocation). *)

let footprint_of r req =
  let writes =
    List.filter
      (fun oid ->
        match placement_of r oid with
        | App.Partition h -> h = r.r_part
        | App.Replicated -> false)
      (r.r_app.App.write_sketch req.rq_payload)
  in
  Conflict_index.footprint
    ~reads:(r.r_app.App.read_plan ~part:r.r_part req.rq_payload)
    ~writes

type exec_job = {
  ej_tmp : Tstamp.t;
  ej_fp : Conflict_index.footprint;
  ej_enq : Time_ns.t;  (* admission instant, for exec.queue spans *)
}

(* Bound on the sequencer→executor queue: the sequencer stalls admission
   (backpressure into the multicast inbox) when it is full. *)
let exec_queue_cap = 64

let delivery_loop r =
  let inflight = ref 0 in
  (* admitted (queued or executing) jobs; barriers wait for 0 *)
  let done_sig = Signal.create () in
  let order : Tstamp.t Queue.t = Queue.create () in
  let completed : (Tstamp.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let advance_frontier () =
    let before = r.r_last_applied in
    let rec go () =
      match Queue.peek_opt order with
      | Some tmp when Hashtbl.mem completed tmp ->
          Hashtbl.remove completed tmp;
          ignore (Queue.pop order);
          if Tstamp.(r.r_last_applied < tmp) then r.r_last_applied <- tmp;
          go ()
      | Some _ | None -> ()
    in
    go ();
    (* One lease publish per batch of completions, after the queue
       state is settled (publishing may suspend). *)
    if Tstamp.(before < r.r_last_applied) then publish_applied r
  in
  let mark_applied tmp () =
    Hashtbl.replace completed tmp ();
    advance_frontier ()
  in
  (* Pipeline on: spawn the coordination writer and the executor pool,
     and return the admission step for eligible single-partition
     requests. *)
  let admit =
    if not r.r_cfg.Config.pipeline.Config.pipe_enabled then None
    else begin
      let reg = r.r_cfg.Config.metrics in
      let cidx = Conflict_index.create () in
      Conflict_index.attach_metrics cidx reg;
      let labels = r.r_span_attrs in
      let blocked_ctr = Heron_obs.Metrics.counter reg ~labels "sched.conflict_blocked" in
      let q_depth = Heron_obs.Metrics.histogram reg ~labels "pipeline.exec_queue_depth" in
      let q_wait = Heron_obs.Metrics.histogram reg ~labels "pipeline.exec_queue_wait_ns" in
      let mb = Mailbox.create () in
      r.r_coord_mb <- Some mb;
      Fabric.spawn_on r.r_node (fun () -> coord_writer_loop r mb);
      let job_sig = Signal.create () in
      let jobs = Queue.create () in
      let executor () =
        let rec run () =
          Signal.wait_until job_sig (fun () -> not (Queue.is_empty jobs));
          let req, j = Queue.pop jobs in
          (* A queue slot freed: the sequencer may be blocked on capacity. *)
          Signal.broadcast done_sig;
          let t_deq = Engine.now r.r_eng in
          Heron_obs.Metrics.observe q_wait (t_deq - j.ej_enq);
          if t_deq > j.ej_enq then
            req_span r req ~stage:"exec.queue" ~start:j.ej_enq t_deq;
          exec_single r req ~tmp:j.ej_tmp ~on_applied:(mark_applied j.ej_tmp);
          Conflict_index.retire cidx j.ej_fp;
          decr inflight;
          Signal.broadcast done_sig;
          run ()
        in
        run ()
      in
      for _ = 1 to r.r_cfg.Config.pipeline.Config.pipe_executors do
        Fabric.spawn_on r.r_node executor
      done;
      Some
        (fun req ~tmp ->
          let fp = footprint_of r req in
          (* Admission: queue capacity (backpressure into the multicast
             inbox), then the conflict index — O(own footprint)
             regardless of how many requests are in flight. A blocked
             request re-checks once per completion or dequeue (the only
             events that can unblock it). Executor concurrency is
             bounded by the pool size itself. *)
          let blocked = ref false in
          let adm0 = Engine.now r.r_eng in
          Signal.wait_until done_sig (fun () ->
              let ok =
                Queue.length jobs < exec_queue_cap && Conflict_index.can_admit cidx fp
              in
              if not ok then blocked := true;
              ok);
          if !blocked then begin
            Heron_obs.Metrics.incr blocked_ctr;
            req_span r req ~stage:"conflict-wait" ~start:adm0 (Engine.now r.r_eng)
          end;
          Conflict_index.admit cidx fp;
          incr inflight;
          Queue.push tmp order;
          Queue.push
            (req, { ej_tmp = tmp; ej_fp = fp; ej_enq = Engine.now r.r_eng })
            jobs;
          Heron_obs.Metrics.observe q_depth (Queue.length jobs);
          Signal.broadcast job_sig)
    end
  in
  let barrier () = Signal.wait_until done_sig (fun () -> !inflight = 0) in
  (* A unit with nothing left to execute. *)
  let settle tmp =
    Queue.push tmp order;
    mark_applied tmp ()
  in
  (* A unit at or below [r_last_req] was covered by a state transfer
     (Algorithm 1 line 3) and is skipped; otherwise it becomes the
     newest delivered unit. Batches check per slot: a transfer can cover
     a prefix of a batch's uid range while the replica still owes the
     suffix. *)
  let fresh tmp =
    if Tstamp.(tmp <= r.r_last_req) then begin
      settle tmp;
      Heron_obs.Metrics.incr r.r_obs.ob_skipped;
      false
    end
    else begin
      r.r_last_req <- tmp;
      true
    end
  in
  let sequence_req tmp dst req =
    if fresh tmp then begin
      req_span r req ~stage:"ordering" ~start:req.rq_submitted (Engine.now r.r_eng);
      Heron_obs.Metrics.observe r.r_obs.ob_ordering
        (Engine.now r.r_eng - req.rq_submitted);
      (* Routing decision before any suspension point: admission waits
         must not let a concurrently adopted placement view change the
         verdict peers reached at this position of the order. *)
      if stale_routed r req then begin
        settle tmp;
        redirect r req ~tmp
      end
      else
        match (dst, admit) with
        | [ _ ], Some admit when not (r.r_app.App.serial_hint req.rq_payload) ->
            admit req ~tmp
        | _ -> (
            barrier ();
            Queue.push tmp order;
            match dst with
            | [ _ ] -> exec_single r req ~tmp ~on_applied:(mark_applied tmp)
            | _ -> exec_multi r req ~tmp ~dst ~on_applied:(mark_applied tmp))
    end
  in
  let rec loop () =
    let dv = Mailbox.recv r.r_inbox in
    let tmp = dv.Ramcast.d_tmp in
    (match dv.Ramcast.d_payload with
    | Migrate mg ->
        if fresh tmp then begin
          (* Migration freeze: drain the executor pool before fixing the
             Phase-2 cut. *)
          barrier ();
          Queue.push tmp order;
          exec_migration r mg ~tmp ~dst:dv.Ramcast.d_dst
            ~on_applied:(mark_applied tmp)
        end
        else notify_migration_done r mg ~tmp
    | Lease g ->
        if fresh tmp then begin
          (* A grant is replicated state like any command, installed at
             its position of the order. Nothing to execute, but
             commit-waits and donor snapshots must not stall on it. *)
          Read_lease.apply_grant r.r_lease ~idx:g.lg_idx
            ~incarnation:g.lg_incarnation ~expiry_ns:g.lg_expiry_ns ~at:tmp;
          settle tmp
        end
    | Req req -> sequence_req tmp dv.Ramcast.d_dst req
    | Batch reqs ->
        Array.iteri
          (fun i req -> sequence_req (batch_slot_tmp tmp i) dv.Ramcast.d_dst req)
          reqs);
    loop ()
  in
  loop ()

(* {1 Lease-protected local reads (DESIGN.md §14)} *)

exception Fast_miss
(* Internal: the fast path cannot serve this request (an object not in
   the snapshot, a write, a remote object, or a version beyond the
   applied frontier); the caller falls back to the ordered path. *)

(* Serve a read-only single-partition request from the local store,
   with no multicast round. Runs on the client's fiber (the RPC wire
   cost is modelled by the caller). [None] means fall back.

   Safety: with a valid self-lease — granted to this incarnation,
   unexpired, and with the grant position applied — every committed
   write is at or below [r_last_applied]: every acknowledgement is
   commit-wait gated on all valid holders' published frontiers, and a
   write acknowledged before our grant was applied at the acknowledging
   replica sits below the grant position, hence below our frontier.
   But the converse hazard is real too: [r_last_applied] also covers
   writes still inside their commit-wait window — applied here, not
   yet at a lagging valid holder — and serving one lets a later read
   at the lagger observe the older value (reads straddling an
   unacknowledged write go backwards; reshard bootstraps make the
   apply skew between replicas wide enough to hit). So reads are
   bounded by the {e stable frontier} instead: the minimum applied
   frontier across all valid holders, i.e. exactly the condition
   commit-wait enforces before any acknowledgement. Freshest-above-
   bound means miss, never serve-an-older-version: the older version
   may already have been superseded in a peer's served reads.
   The whole store snapshot is taken in one event-loop turn — no
   suspension points, costs charged only afterwards — so multi-object
   reads observe a single request boundary. *)
let try_serve_read r payload =
  let fr = fast_reads r in
  if (not fr.Config.fr_enabled) || in_recovery r || r.r_pending_deser > 0 then None
  else
    let now = Engine.now r.r_eng in
    let self_valid =
      match Read_lease.entry r.r_lease ~idx:r.r_idx with
      | None -> false
      | Some e ->
          e.Read_lease.le_incarnation = Fabric.epoch r.r_node
          && now < e.Read_lease.le_expiry_ns
          && Tstamp.(e.Read_lease.le_grant <= r.r_last_applied)
    in
    if not self_valid then None
    else
      let bound = stable_frontier r ~now in
      let plan = r.r_app.App.read_plan ~part:r.r_part payload in
      match
        let snap : (Oid.t, bytes option) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun oid ->
            if not (Hashtbl.mem snap oid) then begin
              (match placement_of r oid with
              | App.Replicated -> ()
              | App.Partition h when h = r.r_part -> ()
              | App.Partition _ -> raise Fast_miss);
              if not (Versioned_store.mem r.r_store oid) then
                Hashtbl.replace snap oid None
              else begin
                let v, tv = Versioned_store.get r.r_store oid in
                if Tstamp.(bound < tv) then raise Fast_miss;
                Hashtbl.replace snap oid (Some v)
              end
            end)
          plan;
        snap
      with
      | exception Fast_miss -> None
      | snap -> (
          (* Charge what the ordered path's execution would have, as one
             debt: nothing here is visible to another fiber before the
             reply. *)
          let debt = { owed = 0 } in
          owe debt (costs r).Config.exec_base_ns;
          Hashtbl.iter
            (fun oid v ->
              count_access r oid;
              Option.iter
                (fun v -> owe debt (read_cost r (Versioned_store.klass_of r.r_store oid) v))
                v)
            snap;
          let lookup oid =
            match Hashtbl.find_opt snap oid with
            | Some v -> v
            | None -> raise Fast_miss
          in
          let ctx =
            {
              App.ctx_partition = r.r_part;
              ctx_tmp = bound;
              ctx_read =
                (fun oid ->
                  match lookup oid with
                  | Some v -> v
                  | None ->
                      invalid_arg
                        (Printf.sprintf "Heron: local object %d does not exist"
                           (Oid.to_int oid)));
              ctx_read_opt = lookup;
              ctx_is_local = (fun oid -> is_local r oid);
              ctx_write = (fun _ _ -> raise Fast_miss);
              ctx_charge = owe debt;
            }
          in
          let resp =
            match r.r_app.App.execute ctx payload with
            | resp -> Some resp
            | exception Fast_miss -> None
          in
          pay debt;
          resp)

let start r =
  if Array.length r.r_peers = 0 then
    invalid_arg "Replica.start: set_directory must be called first";
  Fabric.spawn_on r.r_node (fun () -> delivery_loop r);
  Fabric.spawn_on r.r_node (fun () -> statesync_watcher r);
  if r.r_cfg.Config.durability.Config.dur_enabled then
    Fabric.spawn_on r.r_node (fun () -> checkpoint_loop r)
