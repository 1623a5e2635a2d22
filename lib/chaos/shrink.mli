(** Delta-debugging minimization of failing schedules.

    Given a schedule whose {!Driver.run} fails, find a small event
    subset that still produces the {e same kind} of failure (a shrunk
    subset may fail differently — say a removed restart turns a
    divergence into a stall — and such subsets are rejected as
    non-reproducing). Event times and the workload are never changed;
    only events are removed, which is sound because every spanned
    event carries its own cleanup.

    This is Zeller's ddmin: try dropping chunks at increasing
    granularity until no single event can be removed (1-minimality).
    Every candidate run costs one full simulation; schedules have tens
    of events, so a shrink is tens of runs. *)

val minimize : Schedule.t -> kind:string -> Schedule.t
(** [minimize sc ~kind] assumes [Driver.run sc] fails with
    [Driver.failure_kind f = kind] and returns the schedule restricted
    to a 1-minimal event subset that still does. If the assumption is
    wrong the input comes back unchanged. Every candidate replays under
    [sc.sc_deployment], and the result keeps it, so a shrunk pin
    replays under the deployment its failure was observed in. *)
