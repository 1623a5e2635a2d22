(** Chaos-schedule interpreter: build a fresh KV deployment, run the
    schedule's client workload while injecting its fault events at
    their virtual times, then judge the run.

    A run fails when the system breaks one of its promises:

    - {b Stalled} — the clients' operations did not all complete within
      a generous virtual-time horizon (generated schedules stay inside
      a liveness envelope, so progress is owed);
    - {b Diverged} — after the run settles, two live replicas of one
      partition disagree on an object's latest version;
    - {b Invariant} — a live replica fails
      {!Heron_core.Replica.check_invariants};
    - {b Not_linearizable} — the recorded client history admits no
      linearization ({!Heron_lincheck.Lincheck}); the detail carries
      the shortest failing prefix.
    - {b Unbounded} — the run linearized but a live member's multicast
      log retained more than twice the schedule's clients plus the
      multicasts issued during its longest stall window (a pause, delay
      or drop span, or a crash until as long again after its restart;
      every run: the log is reclaimed with durability on or off), or,
      on longhaul runs (DESIGN.md §13), the durability layer failed its
      point — no checkpoint or truncation ever happened, the update log
      exceeded a few checkpoint intervals' worth of entries, or rejoins
      replayed more than O(delta). The longhaul bounds are derived from
      the schedule's own rate (ops, think time, horizon), so they are
      length-independent: a linearly-growing log fails on any
      sufficiently long schedule.
    - {b Crashed} — an exception escaped the simulated system (an
      assertion or array bound inside protocol code, not the harness);
      the detail carries the exception text.

    Runs are deterministic: same schedule, same outcome, every time —
    which is what makes shrinking and corpus replay possible.

    Injection is defensive so that {e any} event subset (a shrinking
    candidate) stays inside the liveness envelope: a crash is skipped
    if the target is index 0, already dead, or another replica of the
    partition is down or still synchronising state
    ({!Heron_core.Replica.in_recovery}); a restart is skipped if the
    target is alive.

    Every run builds its deployment on its own metrics registry
    ([Config.metrics] of the system handed to [inspect]), which also
    counts [chaos.injections_skipped]. *)

type failure =
  | Stalled of { completed : int; expected : int }
  | Diverged of { detail : string }
  | Invariant of { part : int; idx : int; detail : string }
  | Not_linearizable of { detail : string }
  | Unbounded of { detail : string }
  | Crashed of { detail : string }

type outcome = Completed of { completed : int } | Failed of failure

val failure_kind : failure -> string
(** Stable one-word tag ([stalled], [diverged], [invariant],
    [not_linearizable], [unbounded], [crashed]) — the shrinker's notion
    of "the same bug". *)

val run :
  ?inspect:((Heron_kv.Kv_app.req, Heron_kv.Kv_app.resp) Heron_core.System.t -> unit) ->
  Schedule.t ->
  outcome
(** [run sc] interprets the schedule against a fresh deployment built
    from [sc.sc_deployment] ({!Schedule.deployment}) and [sc.sc_shards];
    live repartitioning is always on.

    [inspect] runs against the live system after the run settled and
    every other verdict passed — the refinement suite uses it to
    digest final replica state. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_outcome : Format.formatter -> outcome -> unit
