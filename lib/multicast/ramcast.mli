(** Timestamped atomic multicast over the simulated RDMA fabric.

    This is the repository's substitute for RamCast (Le et al.,
    Middleware'21), the protocol Heron uses to order requests within and
    across partitions. Process groups are disjoint and each group has
    [n = 2f + 1] members. The protocol is Skeen's algorithm made
    fault-tolerant with per-group leaders:

    + a client writes the message to the leader of every destination
      group and to its followers, as RamCast does;
    + each leader proposes a local logical-clock timestamp and exchanges
      proposals with the other destination groups' leaders;
    + the final timestamp is the maximum proposal; a message is
      dispatched once it is final and minimal among the group's pending
      messages;
    + the leader replicates dispatched messages to its followers in
      delivery order (RC queue pairs keep follower logs in leader
      order) and delivers after a majority of the group has the
      message. Messages that become deliverable together travel in
      one log write and are commit-notified in one notice, as RamCast
      does; a write of several entries pays a 16-byte batch header, a
      write of one entry pays none.

    Guarantees (paper Section II-B): validity, integrity, uniform
    agreement within the failure bound, uniform prefix order and uniform
    acyclic order; delivered timestamps are unique and monotone with
    respect to the delivery order everywhere. Leader failover is always
    on, in a simplified form (see DESIGN.md): followers detect a
    dead leader, the lowest-index live member takes over, synchronises
    the replicated log from a majority, and re-proposes stashed
    messages, reusing the failed leader's own proposal when it reached
    the followers. *)

type config = {
  proc_ns : int;  (** CPU cost of handling one protocol message *)
  submit_hdr_bytes : int;  (** header added to a payload on submit *)
  propose_bytes : int;  (** size of a proposal control write *)
  ack_bytes : int;  (** size of a follower ack *)
  entry_hdr_bytes : int;  (** header added to a replicated log entry *)
  leader_check_ns : int;  (** follower's leader liveness poll period *)
  resubmit_delay_ns : int;  (** client backoff before retrying a submit *)
}
(** Timing and wire-size parameters of the protocol. *)

val default_config : config
(** 2.5 us processing, header sizes matching the prototype's wire
    format. *)

type 'a delivery = {
  d_tmp : Tstamp.t;
  d_uid : int;
  d_dst : int list;  (** destination group ids, sorted *)
  d_payload : 'a;
}

type 'a t

val create :
  ?config:config ->
  ?tracing:Heron_obs.Reqtrace.t * ('a -> (int * int) list) ->
  Heron_rdma.Fabric.t ->
  size_of:('a -> int) ->
  groups:Heron_rdma.Fabric.node array array ->
  'a t
(** [create fab ~size_of ~groups] builds a multicast system whose group
    [g] has members [groups.(g)] (index 0 is the initial leader). Nodes
    must be distinct; each group must be non-empty and of odd size.
    [size_of] gives the serialized payload size used for timing.

    [tracing] enables request-scoped causal tracing (DESIGN.md §11):
    the projection reads [(trace id, parent span id)] pairs out of a
    payload — an empty list or zero trace ids for untraced messages,
    one pair per traced request for batched payloads — and each
    destination group's leader emits [mcast.order] (submit arrival to
    final-timestamp decision) and [mcast.commit] (decision to majority
    replication and delivery) spans into the collector, one per pair. *)

val set_deliver : 'a t -> gid:int -> idx:int -> ('a delivery -> unit) -> unit
(** Install the delivery callback of member [idx] of group [gid]. The
    callback runs on the member's node and must not block; push into a
    mailbox for heavy work. Must be called before {!start}. *)

val start : 'a t -> unit
(** Spawn every member's protocol process. *)

val multicast :
  ?slots:int -> 'a t -> from:Heron_rdma.Fabric.node -> dst:int list -> 'a -> int
(** [multicast t ~from ~dst payload] submits a message to the groups in
    [dst] from a fiber running on node [from], blocking until the
    submission reached the (current) leader of every destination group;
    retries through leader changes. Returns the message uid.

    [slots] (default 1) reserves that many consecutive uids for the
    entry: a batched payload carrying [n] requests passes [~slots:n] so
    delivery can mint [n] distinct per-request timestamps
    [(clock, uid + i)] that no other entry can collide with, and that
    sort identically at every destination group. *)

val group_count : 'a t -> int
val members : 'a t -> gid:int -> Heron_rdma.Fabric.node array
val leader_idx : 'a t -> gid:int -> int

val delivered_count : 'a t -> gid:int -> idx:int -> int
(** Messages delivered so far by one member (tests/monitoring). *)

val debug_state : 'a t -> gid:int -> string
(** Multi-line dump of one group's protocol state (leader, per-member
    log and commit-queue positions) for diagnosing stuck runs in the
    chaos harness. *)

val dispatch_horizon : 'a t -> gid:int -> Tstamp.t
(** Timestamp of the newest entry the group's current leader has
    appended to its log ([Tstamp.zero] if none). Monitoring /
    diagnostics: everything a rejoining member must obtain — by log
    sync or by the layer above's state transfer — lies at or before
    this point at the instant of the rejoin. *)

val restart_member : 'a t -> gid:int -> idx:int -> deliver:('a delivery -> unit) -> unit
(** Rejoin a member whose node crashed and was recovered (a process
    restart loses all protocol state): reset its state, install a fresh
    delivery callback, synchronise the replicated log from the current
    leader (as a new leader does on takeover) and respawn its
    processes. Entries the leader had already delivered are re-delivered
    to the fresh callback — the layer above skips those its recovery
    state transfer covers — and in-flight entries are stored and acked
    so they can commit. When the log was compacted ({!compact}), only
    the retained suffix is copied and re-delivered; the compacted
    prefix is owed to the rejoiner by the layer above's checkpoint
    bootstrap. The node must be alive and must not currently be the
    group's leader.
    Metrics: [mcast.rejoin_replayed], [mcast.rejoin_replay_bytes] —
    the per-rejoin replay cost the longhaul suite asserts is O(delta). *)

val quorum : 'a t -> gid:int -> int
(** f + 1 for the group. *)

val compact : 'a t -> gid:int -> upto:Tstamp.t -> int
(** [compact t ~gid ~upto] drops the prefix of the group's replicated
    log that every {e live} member has already delivered and whose
    timestamps are at or below [upto] — the durability layer calls this
    with its update-log truncation frontier (behind every live
    replica's published checkpoint, DESIGN.md §13), so a rejoining
    member can always obtain the dropped prefix from a live donor's
    checkpoint instead of the log. Logical log positions are preserved
    (only the entry memory is freed) and uid dedup state is kept, so
    the cut is invisible to the ordering protocol. Returns the number
    of entries dropped (0 when nothing qualified).
    Metrics: [mcast.compacted_entries]. *)

val log_retained : 'a t -> gid:int -> idx:int -> int
(** Entries currently held in one member's log array (its logical
    length minus the compacted prefix) — the memory-footprint series
    the longhaul suite asserts stays bounded. *)
