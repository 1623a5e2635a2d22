(** Request-scoped causal tracing: one span tree per request, a
    critical-path extractor over it, and stage-latency attribution.

    This is the only span recorder: it answers both "why was this
    {e request} slow" (the trees) and "what did this {e replica} spend
    time on" (the replica lanes {!Trace_export} draws from the spans'
    [part] and [idx] attributes). A trace is minted at client submit and
    its id travels inside the request through the multicast,
    coordination, admission and execution layers; every component emits
    parent-linked spans against it. When the client observes the reply
    the tree is {e finished}: the critical path is extracted, per-stage
    latency lands in the registry ([req.stage_ns{stage=...}],
    [req.e2e_ns]), the tree joins a bounded ring of recent requests, and
    a top-K sampler keeps the slowest requests as exemplars.

    Replicas that finish a request after the client took its reply — the
    replica skew behind delayed transactions — still report their
    spans. While the finished tree is retained, such a span is kept
    with it as an {e after-reply} span: shown in its replica's lane,
    never part of the tree, its critical path or the stage histograms.

    The collector is single-writer by construction (one simulation
    thread) and records no virtual time: attaching it never changes
    simulated latencies or throughput, only host-side bookkeeping.

    Stage taxonomy (DESIGN.md §11): [request] (the root; its own
    critical-path share is reply transfer + client wakeup), [ordering],
    [mcast.order], [mcast.commit], [phase2], [conflict-wait], [execute],
    [phase4], [state-transfer], [redirect]. With the compartmentalized
    pipeline (DESIGN.md §12) additionally [batch.wait] (batcher enqueue
    to flush) and [exec.queue] (executor-pool admission to dequeue,
    emitted only when the wait is nonzero). *)

open Heron_sim

type span = {
  rs_trace : int;  (** owning trace id *)
  rs_id : int;  (** unique within the collector; > 0, except [0] for
                    after-reply spans, which draw no id *)
  rs_parent : int;  (** parent span id; 0 marks the root *)
  rs_stage : string;
  rs_start : Time_ns.t;
  rs_end : Time_ns.t;
  rs_attrs : (string * string) list;
}

type tree = {
  tr_trace : int;
  tr_root : span;
  tr_spans : span list;  (** every span of the trace, root included *)
  mutable tr_after : span list;
      (** after-reply spans, newest first: recorded after {!finish}
          while the tree was retained; never in [tr_spans] *)
}

val duration : tree -> Time_ns.t
(** Root span duration: client submit to reply. *)

(** {1 Collector} *)

type t

val create : ?ring:int -> ?exemplars:int -> ?max_spans:int -> unit -> t
(** A collector retaining the most recent [ring] (default 512) finished
    trees, the [exemplars] (default 8) slowest ones, and at most
    [max_spans] (default 256) spans per trace, after-reply spans
    included (excess spans are counted and dropped, never unbounded). *)

val attach_metrics : t -> Metrics.t -> unit
(** Publish per-stage critical-path attributions as
    [req.stage_ns{stage=...}] histograms, end-to-end latency as
    [req.e2e_ns], and the [req.traces], [req.late_spans],
    [req.dropped_spans] counters into [reg] on every {!finish}. *)

val start_trace :
  t -> ?attrs:(string * string) list -> now:Time_ns.t -> unit -> int * int
(** Mint a trace at client submit time: returns [(trace id, root span
    id)], both to be carried inside the request. The root span stays
    open until {!finish}. *)

val add_span :
  t ->
  trace:int ->
  parent:int ->
  stage:string ->
  ?attrs:(string * string) list ->
  start:Time_ns.t ->
  Time_ns.t ->
  int
(** [add_span t ~trace ~parent ~stage ~start stop] records a completed
    span and returns its id (a parent for finer sub-spans). A {e late}
    span — its trace already finished, e.g. a replica executing after
    the client took another replica's reply — returns [0]; it is kept
    as an after-reply span of the finished tree while that tree is
    retained (ring or exemplars), and dropped when the trace is unknown
    or evicted. A span beyond the trace's cap returns [0] and is
    dropped. Raises [Invalid_argument] if [stop < start]. *)

val finish : t -> trace:int -> now:Time_ns.t -> unit
(** Close the root span at [now] (the client-side reply instant),
    extract the critical path, feed the stage histograms, and retain the
    tree. No-op for unknown trace ids. *)

val discard : t -> trace:int -> unit
(** Drop an in-flight trace without recording anything (a request
    abandoned by its client). *)

val completed : t -> tree list
(** The retained ring, oldest first. *)

val exemplars : t -> tree list
(** The slowest finished requests, slowest first. *)

val export_trees : t -> tree list
(** Ring plus any exemplars already rotated out of it, deduplicated,
    in trace-id order: what the Perfetto exporter renders. *)

val finished : t -> int
(** Total trees finished (the ring keeps only the most recent). *)

val late_spans : t -> int
(** Spans that arrived for finished or unknown traces, kept after-reply
    or not. *)

val dropped_spans : t -> int
(** Spans refused by the per-trace cap (after-reply spans included). *)

(** {1 Critical-path analysis}

    Pure functions over spans, shared by the collector, the tests and
    [probe explain] (which re-reads spans from a Perfetto dump). *)

type node = { n_span : span; n_children : node list }
(** A span with its children, each clipped conceptually to the parent
    interval during analysis (never mutated). *)

val nest : span list -> node option
(** Build the tree of one trace. The root is the [rs_parent = 0] span
    (earliest wins if several); spans whose parent id is missing from
    the list — dropped or late parents — attach to the root. Siblings
    contained in another sibling's interval are re-nested under it, so
    components that only know the root id (the multicast layer) still
    land inside the stage that covers them. Children are ordered
    deterministically by [(start, -end, stage, id)]. [None] on an empty
    list or when no root span is present (a truncated dump). *)

type seg = {
  sg_span : span;  (** the span whose stage owns this interval *)
  sg_from : Time_ns.t;
  sg_until : Time_ns.t;
}

val critical_segments : node -> seg list
(** Walk the tree backwards from the root's end: each interval of the
    root span is attributed to the deepest last-finishing span covering
    it, gaps to the enclosing span itself. Segments are returned in
    chronological order, are disjoint, and partition the root interval
    exactly — their durations sum to {!duration} with no slack. *)

val breakdown : seg list -> (string * int) list
(** Total attributed nanoseconds per stage, largest first (ties by
    stage name). *)

val trees_of_spans : span list -> tree list
(** Regroup a flat span list (e.g. re-read from a Perfetto dump) into
    trees by trace id, slowest first, with no after-reply spans. Traces
    with no root span are dropped. *)

val render_tree : tree -> string
(** Human-readable critical path: one header line (trace id, end-to-end
    latency, span count), one line per critical segment with offset,
    duration, stage and span attributes, and a final breakdown line. *)
