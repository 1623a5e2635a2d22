(** Imperative binary min-heap.

    No library uses it: the engine keeps its own event queue
    ({!Engine}). It is kept for the benchmark's [sim.pq_push_pop_ns]
    micro-timing and for the tests, whose reference model of the
    engine's event order is built on it. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek h] is the smallest element without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

val to_list : 'a t -> 'a list
(** [to_list h] is every element of [h] in unspecified order. *)
