(** Per-object conflict index for the parallel executor.

    The executor admits a single-partition request only when its object
    footprint does not conflict with any in-flight request (common
    write, or a write overlapping a read). Instead of comparing the
    candidate against every in-flight footprint — O(inflight ×
    footprint) per admission attempt — the index keeps one entry per
    live object ([Oid.t] → readers count / writer flag), making
    {!can_admit}, {!admit} and {!retire} all O(own footprint).

    The caller serializes access (the delivery loop and the executors
    are cooperative fibers on one node); {!admit} must only follow a
    {!can_admit} that returned [true] with no intervening admits, and
    every admit must be paired with exactly one {!retire} of the same
    footprint. *)

type footprint

val footprint : reads:Oid.t list -> writes:Oid.t list -> footprint
(** Build a normalized footprint: duplicates are dropped and an object
    appearing in both sets counts as a write only. *)

val footprint_size : footprint -> int
(** Distinct objects (reads + writes after normalization). *)

type t

val create : unit -> t

val attach_metrics : t -> Heron_obs.Metrics.t -> unit
(** Record into the registry: [sched.conflict_probes] (per-object
    entry probes during admission checks), [sched.conflict_admits] and
    [sched.conflict_retires]. *)

val can_admit : t -> footprint -> bool
(** No in-flight writer on any object of the footprint, and no
    in-flight reader on any of its writes. *)

val admit : t -> footprint -> unit
val retire : t -> footprint -> unit

val live_objects : t -> int
(** Index entries currently held by in-flight requests — O(live
    footprint), the index never scans more than this. *)

val probes : t -> int
(** Total per-object probes performed by {!can_admit} since creation
    (also exported as [sched.conflict_probes]); the admission-cost
    micro-benchmark asserts this grows with footprint size, not with
    the in-flight count. *)
