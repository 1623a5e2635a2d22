(** Deterministic discrete-event simulation engine.

    The engine advances a virtual clock and runs lightweight cooperative
    processes ("fibers") implemented with OCaml 5 effect handlers.
    Inside a fiber, blocking operations ({!sleep}, {!suspend}, and the
    combinators built on them in {!Ivar}, {!Mailbox} and {!Signal}) park
    the fiber and let virtual time advance; there is no real
    concurrency, so a run is fully deterministic given its seed.

    The engine is the substitute for the paper's CloudLab testbed: all
    latencies of the simulated RDMA fabric and message network are paid
    by sleeping on this virtual clock. *)

type t

exception Cancelled
(** Raised inside a fiber resumed after its cancellation token fired
    (e.g. its node crashed). Normally handled by the engine itself. *)

type token
(** Cancellation token: fibers spawned with a token stop (with
    {!Cancelled}) at their next resumption once the token is fired.
    Models a node crash taking down every process hosted on it. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine at time 0. [seed] (default 42)
    initialises the engine-owned PRNG returned by {!rng}. *)

val now : t -> Time_ns.t
(** Current virtual time. *)

val rng : t -> Random.State.t
(** The engine's deterministic PRNG. All randomness in a simulation
    must come from this state (or from an explicitly seeded one) so
    runs are reproducible. *)

val new_token : t -> token

val cancel : token -> unit
(** Fire the token. Already-running code is unaffected until its next
    suspension point. *)

val is_cancelled : token -> bool

val spawn : ?token:token -> ?name:string -> t -> (unit -> unit) -> unit
(** [spawn t f] schedules fiber [f] to start at the current time.
    Exceptions other than {!Cancelled} escaping [f] abort the run. *)

val schedule : ?delay:Time_ns.t -> t -> (unit -> unit) -> unit
(** [schedule ~delay t f] runs callback [f] (not a fiber: it must not
    block) after [delay] (default 0; a negative delay counts as 0).

    Events run in [(at, seq)] order: by due time, then by the order in
    which they were scheduled. So an event scheduled with delay 0 runs
    after every event already queued for the current instant. *)

val run : t -> unit
(** Run until the event queue is empty. *)

val run_until : t -> Time_ns.t -> unit
(** [run_until t horizon] runs events with time [<= horizon] and then
    sets the clock to [horizon]. If the event queue drains early the
    clock jumps to [horizon]; fibers parked on {!suspend} stay parked
    (use {!live_fibers} in tests to detect unexpected deadlock). A
    [horizon] behind the clock runs nothing and leaves the clock where
    it is: the clock never moves backwards. *)

val run_for : t -> Time_ns.t -> unit
(** [run_for t d] is [run_until t (now t + d)]. *)

val pending_events : t -> int
(** Number of queued events (for tests and debugging). *)

val live_fibers : t -> int
(** Number of fibers that have started and not yet finished. *)

(** {1 Operations available inside a fiber}

    These perform effects and must be called from code running under
    {!spawn}; calling them elsewhere raises
    [Stdlib.Effect.Unhandled]. *)

val sleep : Time_ns.t -> unit
(** Park the calling fiber for a virtual duration. A duration [<= 0]
    still yields (the fiber resumes after already-scheduled events at
    the current instant). *)

val consume : Time_ns.t -> unit
(** Alias of {!sleep}, used to charge simulated CPU time to the calling
    fiber. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the fiber and calls [register wake]; the
    fiber resumes when [wake ()] is invoked (from any other fiber or
    callback). Calling [wake] more than once is harmless. This is the
    primitive under {!Ivar}, {!Mailbox} and {!Signal}. *)

val self_now : unit -> Time_ns.t
(** Current virtual time, from inside a fiber. *)
