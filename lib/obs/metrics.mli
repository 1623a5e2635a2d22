(** Label-aware metric registry: counters, gauges and log-bucketed
    latency histograms, with cheap hot-path updates.

    A metric is identified by its name plus a sorted label set; asking a
    registry twice for the same identity returns the same underlying
    metric (label order does not matter), which is how components
    sharing a registry accumulate into one series. [counter]/[gauge]/
    [histogram] return {e writer handles}: look a metric up once at
    setup time and the per-event cost is a couple of integer
    operations, cheap enough to leave enabled during benchmarks.

    Readers take a {!snapshot} and query it with {!find}, never a
    handle: [counter reg name] on a series that its writer labels
    creates an unlabelled twin that reads 0. {!find} merges every
    series whose labels include the given ones, so one call reads a
    single replica, a partition or the whole deployment.

    Conventions used across the Heron stack (see DESIGN.md §8):
    dot-separated lowercase names grouped by layer ([rdma.*], [mcast.*],
    [coord.*], [store.*], [replica.*]); histogram names carry their unit
    as a suffix ([*_ns], [*_bytes]). *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh, empty registry. There is no process-wide one: each
    deployment records into the registry its configuration names. *)

(** {1 Counters (monotonic)} *)

type counter

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find or create. Raises [Invalid_argument] if the identity already
    names a metric of another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges (last value wins)} *)

type gauge

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms}

    Log-bucketed with 16 sub-buckets per power of two: values 0..15 are
    exact, larger values land in a bucket whose width is 1/16 of its
    base, so any quantile estimate is at most ~6.25% above the true
    sample value. Negative observations clamp to 0. *)

type histogram

val histogram : t -> ?labels:(string * string) list -> string -> histogram
val observe : histogram -> int -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_percentile : histogram -> float -> int
(** Nearest-rank percentile, reported as the upper bound of the bucket
    holding the rank-th observation (0 for an empty histogram; raises
    [Invalid_argument] outside [0..100]). For any sample set, the bucket
    of [hist_percentile h p] equals the bucket of
    [Sample_set.percentile s p] computed on the same values. *)

val bucket_of : int -> int
(** Bucket index of a value (exposed for tests). Monotone. *)

val bucket_upper : int -> int
(** Largest value mapping to the given bucket index. *)

(** {1 Snapshots} *)

type hist_snap = {
  hs_count : int;
  hs_sum : int;
  hs_min : int;  (** 0 when empty *)
  hs_max : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
  hs_buckets : (int * int) list;  (** (bucket upper bound, count), non-empty buckets only *)
}

type value_snap = Counter_v of int | Gauge_v of int | Histogram_v of hist_snap

type entry = {
  e_name : string;
  e_labels : (string * string) list;  (** sorted *)
  e_value : value_snap;
}

type snapshot = entry list
(** Sorted by (name, labels): deterministic output. *)

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-metric delta of a measurement window: counters and histogram
    buckets/counts/sums subtract (entries absent from [before] count as
    zero); gauges, histogram min/max and the re-derived percentiles are
    taken from [after]'s state. Entries only in [before] are dropped. *)

val find : snapshot -> ?labels:(string * string) list -> string -> value_snap option
(** Every entry named [name] whose label set contains all of [labels]
    (in any order; none given matches every label set), merged: counters
    add; histograms add count, sum and buckets, take the min over the
    non-empty ones and the max over all, and re-derive p50/p90/p99 from
    the merged buckets. A lone match is returned unchanged. [None] when
    nothing matches; raises [Invalid_argument] when several gauges, or
    entries of different kinds, match. *)

(** {1 Export} *)

val to_text : snapshot -> string
(** One line per metric: [name{k="v"} value] for counters/gauges,
    count/p50/p99/max summaries for histograms. *)

val to_json : snapshot -> Json.t
(** [{"metrics": [{"name", "labels", "type", ...}, ...]}]. *)
