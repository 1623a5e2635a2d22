(** Coordination memory (Algorithm 1's [coord_mem]).

    Each replica owns an RDMA-registered array with one 16-byte slot
    per (partition, replica) pair in the system. During Phases 2 and 4
    of a multi-partition request, every involved replica writes
    [(request timestamp, stage)] into its own slot in the memory of
    every replica involved, then waits for a majority of slots per
    involved partition to reach the request (paper Figure 2).

    Slot layout: [packed timestamp : int64][stage : int64]. Stage 1 is
    the pre-execution barrier (Phase 2), stage 2 the post-execution
    barrier (Phase 4). *)

open Heron_multicast

type t

val create : Heron_rdma.Fabric.node -> partitions:int -> replicas:int -> t

val attach_metrics : t -> Heron_obs.Metrics.t -> unit
(** Count every {!read_slot} into the registry's [coord.slot_reads]
    counter — a measure of coordination-polling pressure. *)

val slot_bytes : int
(** 16. *)

val slot_addr : t -> part:int -> idx:int -> Heron_rdma.Memory.addr
(** Address of the slot belonging to replica [idx] of partition
    [part], for use by that replica's remote writes. *)

val read_slot : t -> part:int -> idx:int -> Tstamp.t * int
(** Current [(timestamp, stage)] in a slot of this (local) memory. *)

val write_local : t -> part:int -> idx:int -> Tstamp.t -> stage:int -> unit
(** Local update of one's own slot in one's own memory (a replica also
    "coordinates with itself"). *)

val encode_slot : Tstamp.t -> stage:int -> bytes
(** Wire image of a slot, for remote writes. *)

val merge_slot : t -> part:int -> idx:int -> bytes -> unit
(** Store a slot image (as read from the slot owner's own memory) into
    this local memory if it is ahead of the local copy. Slots only move
    forward, so a merged image is what the owner's next announcement
    would have left there anyway. *)

(** [reached t ~part ~idx ~tmp ~stage] holds when the slot shows that
    the replica either coordinated at [>= stage] for exactly this
    request, or has already moved past it (its latest coordinated
    request is newer) — the wait condition of Algorithm 1 lines 10/16. *)
val reached : t -> part:int -> idx:int -> tmp:Tstamp.t -> stage:int -> bool

val count_reached :
  ?stop_at:int -> t -> part:int -> replicas:int -> tmp:Tstamp.t -> stage:int -> int
(** Number of replicas of [part] whose slot satisfies {!reached}.
    [stop_at] caps the scan: return as soon as that many reached slots
    were seen (waiters checking a threshold need not read the remaining
    slots every poll). *)

(** {2 Checkpoint frontiers (DESIGN.md §13)}

    A second region with one 8-byte slot per (partition, replica) pair
    holds the packed timestamp of each replica's latest {e checkpoint}
    frontier: every update at or below it is captured in that replica's
    checkpoint. The checkpoint fiber fans its frontier out to every
    replica of its partition exactly like a coordination announce;
    truncation then stays behind the {e minimum} frontier over live
    peers, so any live donor's checkpoint provably covers the compacted
    prefix. A zeroed slot (fresh or restarted peer) reads as
    [Tstamp.zero] and blocks truncation until that peer checkpoints —
    conservative, never unsafe. *)

val frontier_bytes : int
(** 8. *)

val frontier_addr : t -> part:int -> idx:int -> Heron_rdma.Memory.addr
(** Address of the frontier slot of replica [idx] of partition [part]
    in this memory, for that replica's remote writes. *)

val read_frontier : t -> part:int -> idx:int -> Tstamp.t
(** Latest checkpoint frontier replica [idx] of [part] published into
    this (local) memory; [Tstamp.zero] if it never has. *)

val write_frontier_local : t -> part:int -> idx:int -> Tstamp.t -> unit
(** Local update of one's own frontier slot in one's own memory. *)

val encode_frontier : Tstamp.t -> bytes
(** Wire image of a frontier slot, for remote writes. *)
