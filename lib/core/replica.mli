(** A Heron replica: the coordination, execution and state-transfer
    logic of Algorithms 1-3.

    Replicas are created and wired together by {!System}; the functions
    here are exposed for the test suite and the experiment harness.

    Lifecycle: {!create} every replica of the deployment, then
    {!set_directory} with the full replica matrix (replicas address each
    other's coordination memory, state-transfer memory and object cells
    directly, as RDMA peers do after connection setup), then {!start}.
    Deliveries from atomic multicast are pushed into {!inbox}. *)

open Heron_sim
open Heron_multicast

type 'resp reply =
  | Reply of 'resp
  | Redirect of { epoch : int }
      (** the request's destination set was computed under a placement
          older than the replicas' — every destination redirects and
          none executes; the client refreshes its placement view and
          retries (DESIGN.md §10) *)

type ('req, 'resp) request = {
  rq_payload : 'req;
  rq_dst : int list;  (** destination partitions, sorted *)
  rq_submitted : Time_ns.t;  (** client submit instant (latency metrics) *)
  rq_client_node : Heron_rdma.Fabric.node;
  rq_reply : part:int -> 'resp reply -> unit;
      (** invoked (on a replica fiber, after the reply transfer) by
          every replica of each destination partition that answers
          the request, with a reply or a redirect; the first call per
          partition answers the client, and any call after the client
          has returned is a no-op *)
  rq_trace : int;
      (** request-scoped trace id minted by the client at submit
          (DESIGN.md §11); 0 when the deployment does not trace *)
  rq_parent : int;  (** the trace's root span id; 0 when untraced *)
}

type migration = {
  mg_epoch : int;  (** placement epoch this migration installs *)
  mg_src : int;  (** partition the objects leave *)
  mg_dst : int;  (** partition the objects join *)
  mg_oids : (Oid.t * int) list;  (** objects and their cell capacities *)
  mg_shards : Heron_topology.Shard_map.t option;
      (** for a shard split or merge (DESIGN.md §15): the full
          replacement shard table every replica installs at this
          command's position instead of per-object overrides —
          [mg_oids] then lists the carved keys the destination
          bootstraps, and the table alone re-homes them *)
  mg_client_node : Heron_rdma.Fabric.node;  (** the orchestrator's node *)
  mg_done : part:int -> unit;  (** per-partition completion, like a reply *)
  mg_trace : int;
      (** orchestrator-minted trace id (DESIGN.md §11) under which the
          replicas record [reshard.freeze] / [reshard.bootstrap] spans;
          0 when untraced *)
  mg_parent : int;  (** the trace's root span id; 0 when untraced *)
}
(** An online object migration (DESIGN.md §10) — or, with [mg_shards]
    set, a shard split/merge (DESIGN.md §15) — multicast to {e every}
    partition as an ordinary totally-ordered command: the Phase-2
    barrier fixes the cut, the destination partition pulls the objects'
    raw dual-version cells from Phase-2-reached source replicas, and
    each replica installs [mg_epoch] at the command's position in the
    delivery order. Built by {!Heron_reconfig.Migration}. *)

val placement_moves : migration -> (Oid.t * int) list
(** The overrides a command installs: each object at [mg_dst] for a
    migration, none for a split or merge (its shard table already
    resolves the moved keys). *)

type lease_grant = {
  lg_part : int;  (** the granter's partition (also the multicast dst) *)
  lg_idx : int;  (** replica index the lease is granted to *)
  lg_incarnation : int;  (** holder's {!Heron_rdma.Fabric.epoch} at grant time *)
  lg_expiry_ns : Time_ns.t;  (** absolute expiry on the virtual clock *)
}
(** A read-lease grant (DESIGN.md §14), multicast by {!System}'s
    per-replica granter fibers to the holder's own partition: every
    replica applies it at the same position of the delivery order, so
    the lease table is deterministic replicated state. *)

type ('req, 'resp) msg =
  | Req of ('req, 'resp) request
  | Migrate of migration
  | Batch of ('req, 'resp) request array
      (** several same-destination single-partition requests submitted
          as one multicast entry by the pipeline batcher (DESIGN.md
          §12): one Skeen round per batch. The submitter must reserve
          one uid per request ([Ramcast.multicast ~slots]); delivery
          expands slot [i] to timestamp [(clock, uid + i)], so every
          request keeps a distinct timestamp (dual versioning requires
          it) and every destination group expands identically. *)
  | Lease of lease_grant

(** What travels the atomic multicast. *)

type ('req, 'resp) t

val create :
  cfg:Config.t ->
  app:('req, 'resp) App.t ->
  mcast:('req, 'resp) msg Ramcast.t ->
  part:int ->
  idx:int ->
  node:Heron_rdma.Fabric.node ->
  store_region_size:int ->
  ('req, 'resp) t
(** The replica records only into [cfg.metrics], every series labelled
    with its [part] and [idx] (DESIGN.md §8); a replica restarted into
    the same slot continues the same series. [mcast] is the
    deployment's multicast, whose member [(part, idx)] feeds this
    replica; the checkpoint round samples its retained log into
    [durability.mcast_log_len]. *)

val set_directory : ('req, 'resp) t -> ('req, 'resp) t array array -> unit
(** [set_directory r all] gives [r] the full matrix
    [all.(partition).(replica_index)]; must include [r] itself. *)

val start : ('req, 'resp) t -> unit
(** Spawn the replica's processes: the execution loop and the
    state-transfer handler. *)

val inbox : ('req, 'resp) t -> ('req, 'resp) msg Ramcast.delivery Mailbox.t
val store : ('req, 'resp) t -> Versioned_store.t
val node : ('req, 'resp) t -> Heron_rdma.Fabric.node
val part : ('req, 'resp) t -> int
val idx : ('req, 'resp) t -> int
val last_req : ('req, 'resp) t -> Tstamp.t

val last_applied : ('req, 'resp) t -> Tstamp.t
(** The applied frontier: the highest position executed or covered by a
    state transfer. The lease granter gates renewals on it — see
    {!System}. *)

val force_state_transfer :
  ?cover:Tstamp.t -> ('req, 'resp) t -> failed_tmp:Tstamp.t -> unit
(** Run the lagger side of Algorithm 3 as if a read had just failed at
    [failed_tmp]: the donor ships every object updated at or after it.
    [cover] (default [failed_tmp]) is how far the adopted state must
    reach — the transfer is re-requested until a donor has applied past
    it. Restart recovery passes a minimal [failed_tmp] (the store is
    empty, everything must ship) with [cover] at the group's dispatch
    horizon. Blocks the calling fiber until the transfer completes. *)

val watch_coordination : ('req, 'resp) t -> unit
(** Restart companion; never returns, so spawn it on the replica's
    node. Announcements peers posted while the replica was down were
    dropped, and without them it can wait forever in Phase 2 of a
    redelivered entry the peers already coordinated. Whenever a
    coordination wait has made no progress for a state-transfer
    timeout, read every peer's own slot from the peer's memory and keep
    it where it is ahead of the local copy (one RDMA read per live
    peer). *)

val update_log : ('req, 'resp) t -> Update_log.t
(** The replica's update log (tests and the Figure 8 experiment). *)

val checkpoint_frontier : ('req, 'resp) t -> Tstamp.t option
(** Frontier of the replica's latest checkpoint — every update at or
    below it is captured — or [None] before the first checkpoint
    completes (tests and monitoring). *)

val placement_view : ('req, 'resp) t -> Placement.view
(** The replica's placement view: epoch 0 until it executes (or adopts
    through a state transfer) a migration. *)

val drain_access_counts : ('req, 'resp) t -> (Oid.t * int) list
(** Per-object access counts since the last drain (reads prefetched or
    on demand, and applied writes), and reset them. Only populated when
    [Config.reconfig.enabled]; the rebalancer polls this. *)

val in_recovery : ('req, 'resp) t -> bool
(** Whether a state-transfer episode (lagger side, retries included) is
    currently in flight on this replica. The chaos driver uses it to
    keep crash injection inside the failure model: until every replica
    of a partition has applied an acknowledged request's suffix —
    Phase 4's grace deadline replies without waiting for laggers — the
    replicas that did apply it are not expendable, and crashing one
    while a peer is still synchronising can lose acknowledged state
    with only one nominal failure. *)

val inject_exec_delay : ('req, 'resp) t -> Time_ns.t -> unit
(** Failure injection: add a fixed delay to every request this replica
    executes, making it slower than its peers. Used to manufacture
    laggers (paper Section V-E). *)

val check_invariants : ?quiescent:bool -> ('req, 'resp) t -> (unit, string) result
(** Internal self-consistency checks for the chaos harness: the applied
    frontier never leads the delivery frontier, the update log (entries
    and truncation point) never reaches beyond the last delivered
    request, the replica's own coordination slot never announces a
    future request, and every registered object still holds two
    distinct versions. With [quiescent] (the default) additionally
    asserts no store version is tagged beyond [last_req] — true at rest
    but legitimately violated mid-recovery, when a donor snapshot ships
    a peer's in-progress writes ahead of the adopted prefix. [Error]
    carries a human-readable description of the breach. *)

val try_serve_read : ('req, 'resp) t -> 'req -> 'resp option
(** Serve a read-only single-partition request from the local store
    under the replica's read lease (DESIGN.md §14), with no multicast
    round; [None] when the fast path cannot serve it — lease missing,
    expired or not yet applied, replica mid-recovery, a version beyond
    the applied frontier, an object outside this partition, or the
    request turned out not to be read-only — and the caller must fall
    back to the ordered path. Only meaningful with
    [Config.fast_reads.fr_enabled]; call it from the client's fiber
    after modelling the request's wire transfer. *)

val lease_table : ('req, 'resp) t -> Read_lease.t
(** The replica's lease table and frontier-copy region (tests). *)
