(** Atomic-multicast timestamps.

    A timestamp is a [(clock, uid)] pair: [clock] is the agreed Skeen
    timestamp and [uid] the globally unique message id used as a
    tie-break. Timestamps are totally ordered and unique per message,
    and for any two messages [m], [m'], if some process delivers [m]
    before [m'] then [tmp m < tmp m'] — the property Heron's
    dual-versioning relies on (paper Section II-B).

    A timestamp packs into a non-negative [int64] whose numeric order
    equals {!compare} (39-bit clock, 23-bit uid), so it can live in
    RDMA-registered memory and be read/written atomically. The packed
    value also fits a non-negative OCaml [int] ({!to_int}), so packed
    stamps compare as ints without building a [t]. *)

type t = { clock : int; uid : int }

val zero : t
(** Smaller than any timestamp of a delivered message; tags initial
    object versions. *)

val make : clock:int -> uid:int -> t

val compare : t -> t -> int

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val equal : t -> t -> bool

val to_int64 : t -> int64
(** Raises [Invalid_argument] if the clock exceeds 39 bits or the uid
    exceeds 23 bits. *)

val to_int : t -> int
(** [Int64.to_int (to_int64 t)], with the same range checks: for any
    two stamps in range, [compare (to_int a) (to_int b)] equals
    [compare a b]. *)

val of_int64 : int64 -> t

val pp : Format.formatter -> t -> unit
