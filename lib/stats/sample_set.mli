(** Collector of scalar samples (typically latencies in nanoseconds).

    Keeps every recorded sample, so percentiles and CDFs are exact.
    Experiments in this repository record at most a few million samples
    per run, which fits comfortably in memory. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample. *)

val count : t -> int

val is_empty : t -> bool

val mean : t -> float
(** Arithmetic mean; [0.] when empty. *)

val stddev : t -> float
(** Population standard deviation; [0.] when empty. *)

val min_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val max_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> int
(** [percentile t p] is the [p]-th percentile ([0. <= p <= 100.]) using
    nearest-rank on the sorted samples. Raises [Invalid_argument] when
    empty or when [p] is out of range. *)

val median : t -> int

val cdf : ?points:int -> t -> (int * float) list
(** [cdf ~points t] is an evenly spaced sketch of the empirical CDF as
    [(value, fraction)] pairs, [fraction] increasing to [1.]. [points]
    defaults to 100 and is capped by the sample count. *)

val values : t -> int array
(** A sorted copy of all samples. *)

val merge : t -> t -> t
(** [merge a b] is a fresh set containing the samples of both. *)
