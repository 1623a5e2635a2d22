(** Reliable-Connection queue pairs and one-sided verbs.

    A QP connects a source node to a destination node. As on real
    hardware (RC transport): operations posted to one QP complete in
    order, data transfer is reliable while the peer is up, and a verb
    targeting a dead peer fails with a work-completion error after a
    transport timeout — surfaced here as {!Rdma_exception}, which is
    what lets Algorithm 2 detect failed replicas (lines 20-21).

    All verbs must be called from a fiber running on the source node;
    they block that fiber for the simulated duration of the operation.
    {!write_post} is the exception: it models a posted write whose
    completion is never polled (fire-and-forget).

    Injected link faults ({!Fabric.set_link_fault}) apply per verb:
    the link's extra latency is added to every completion, and an
    active drop fault discards posted writes at their landing instant.

    Every verb records count, payload bytes and post-to-completion
    latency into the fabric's metric registry ({!Fabric.metrics}) as
    [rdma.verb.count] / [rdma.verb.bytes] / [rdma.verb.latency_ns]
    labelled by [verb], [src] and [dst] (one series per QP pair), plus
    [rdma.failure_timeouts] and [rdma.dropped_writes] per pair. *)

type t

exception Rdma_exception of { target : int; verb : string }
(** Work-completion error: the peer [target] was dead. *)

val connect : src:Fabric.node -> dst:Fabric.node -> t
(** Create a queue pair. Both nodes must be on the same fabric. *)

val src : t -> Fabric.node
val dst : t -> Fabric.node

val read : t -> Memory.addr -> len:int -> bytes
(** One-sided RDMA read of [len] bytes at [addr] on the destination
    node. Returns the bytes as of the (simulated) completion instant.
    Raises {!Rdma_exception} after the transport timeout if the peer is
    dead. *)

val write : t -> Memory.addr -> bytes -> unit
(** One-sided RDMA write, blocking until completion. The payload is
    snapshotted at post time. Raises {!Rdma_exception} if the peer is
    dead. *)

val write_post : t -> Memory.addr -> bytes -> unit
(** Post a write and return after the local post cost only. The write
    lands (and raises the destination's memory signal) at its in-order
    completion instant; if the peer is dead — or an injected link fault
    ({!Fabric.set_link_fault}) is dropping writes on this link — at
    that instant the write is dropped — exactly the behaviour of an
    unpolled posted write — and counted in the [rdma.dropped_writes]
    metric (see {!dropped_writes}). *)

val dropped_writes : t -> int
(** Posted writes this QP dropped because the peer was dead at their
    completion instant. *)

(** Doorbell batching: collect writes, possibly to several peers over
    QPs sharing a source node, then ring once. WQEs are rung in
    coalesce groups of at most [post_coalesce]; the first WQE of each
    group pays [post_ns] of local CPU, each further WQE only
    [doorbell_ns]. Every WQE still serializes on its QP and pays the
    full per-verb wire latency (RC ordering), lands like {!write_post},
    and is dropped (and counted) if its peer is dead at its completion
    instant. [rdma.verb.count{verb=write_post}] counts doorbells — one
    per group, attributed to the QP carrying the group's first WQE —
    while [rdma.verb.bytes] / [rdma.verb.latency_ns] stay per-WQE;
    fabric-wide [rdma.doorbell.rings] / [rdma.doorbell.wqes] /
    [rdma.doorbell.coalesced] track the batching itself. A batch is
    reusable — {!ring} drains it. *)
module Doorbell : sig
  type batch

  val create : unit -> batch

  val add : batch -> t -> Memory.addr -> bytes -> unit
  (** Append a write WQE. The payload is snapshotted at {!ring} time
      (the post), not at [add] time. Raises [Invalid_argument] if the
      QP's source node differs from the batch's. *)

  val length : batch -> int

  val ring : batch -> unit
  (** Post all collected WQEs from the caller's fiber (which must run
      on the source node) and reset the batch. Empty batches are
      no-ops. *)
end

val cas : t -> Memory.addr -> expected:int64 -> desired:int64 -> int64
(** One-sided atomic compare-and-swap on an 8-byte word. Returns the
    previous value. Raises {!Rdma_exception} if the peer is dead. *)

val transfer : t -> bytes_len:int -> unit
(** Timing-and-failure-only write: blocks for the duration of a verb
    carrying [bytes_len] bytes and raises {!Rdma_exception} if the peer
    is dead, but moves no simulated memory. Used by control planes
    (e.g. the multicast protocol) whose payloads are tracked as OCaml
    values rather than serialized into regions. *)

val read_i64 : t -> Memory.addr -> int64
(** Atomic 8-byte one-sided read. *)

val write_i64 : t -> Memory.addr -> int64 -> unit
(** Atomic 8-byte one-sided write (blocking). *)
