(** Chrome / Perfetto [trace_event] export of {!Reqtrace} trees.

    Produces the JSON object format understood by [ui.perfetto.dev] and
    [chrome://tracing]. Timestamps are virtual nanoseconds rendered in
    the format's microsecond unit, so durations read directly in the UI.
    One document holds two views of the same spans:

    - {e replica lanes}: one process per replica, named
      ["replica pP/rI"] and ordered by (part, idx), with one named track
      per stage ([ordering], [phase2], [execute], [phase4],
      [state-transfer], ...). Every non-root span carrying [part] and
      [idx] attributes appears once in its replica's lane, including
      the after-reply spans of replicas that finished after the client
      took its reply (marked [after_reply] in the event args). This is
      "what did this replica spend time on", and the replica skew.
    - the ["requests"] process: one track per request, tree spans only,
      so a request's whole causal history reads as one row. Each
      request span's [args] carry its exact causal identity ([trace],
      [span], [parent]) and exact nanosecond endpoints, making the dump
      self-describing: {!request_spans_of_json} rebuilds the trees from
      it, which is how [probe explain] re-derives critical paths
      offline. *)

val perfetto : Reqtrace.tree list -> Json.t
(** [perfetto trees] (e.g. {!Reqtrace.export_trees}) builds the trace
    document; no trees give an empty one. *)

val replica_lanes : Reqtrace.tree list -> ((int * int) * Reqtrace.span list) list
(** The spans of each replica lane, keyed by (part, idx) in that order:
    tree spans and after-reply spans (those with [rs_id = 0]) of every
    tree, in tree order. *)

val write_file : string -> Reqtrace.tree list -> unit
(** Write the document to a file (truncating). *)

val request_spans_of_json : Json.t -> Reqtrace.span list
(** Recover the tree spans from the ["requests"] process of a trace
    document; replica lanes and other events are ignored. Feed the
    result to {!Reqtrace.trees_of_spans}. *)
