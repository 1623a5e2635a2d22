(** Fault schedules for the chaos harness.

    A schedule is an explicit, serializable description of one chaos
    run: the workload a deployment executes (partitions, replicas,
    clients, operation mix — all derived from a seed) plus a list of
    timed fault events injected while the workload runs. Schedules are
    plain data: the {!Driver} interprets them against a live system,
    the shrinker ({!Shrink}) minimizes their event lists, and failing
    schedules are pinned as JSON files under [test/corpus/] and
    replayed forever after by [dune runtest].

    Times are virtual nanoseconds from simulation start. Replicas are
    named by [(partition, index)], never by fabric node id, so a
    schedule is meaningful against any freshly-built deployment of the
    same shape. *)

type event =
  | Crash of { part : int; idx : int; at : int }
      (** Kill replica [idx] of [part] at time [at] (power failure:
          fibers cancelled, volatile memory lost on recovery). *)
  | Restart of { part : int; idx : int; at : int }
      (** Recover the replica and run the full rejoin path: multicast
          re-subscription and state transfer (Algorithm 3). *)
  | Delay_link of { src : int * int; dst : int * int; extra_ns : int; at : int; span : int }
      (** Add [extra_ns] one-way latency to every RDMA verb from
          replica [src] to replica [dst] during [[at, at+span]]. *)
  | Drop_writes of { src : int * int; dst : int * int; at : int; span : int }
      (** Silently drop posted (fire-and-forget) writes from [src] to
          [dst] during the span — lost coordination announcements.
          Blocking verbs are unaffected (RC transport retries). *)
  | Pause_replica of { part : int; idx : int; extra_ns : int; at : int; span : int }
      (** Slow the replica's execution by [extra_ns] per request during
          the span, manufacturing a lagger (paper Section V-E). *)
  | Migrate of { key : int; dst : int; at : int }
      (** Live-migrate [key] to partition [dst] at time [at]
          (DESIGN.md §10). The source partition is whatever the
          directory says when the event fires; if the key already lives
          on [dst] — or another migration is in flight — the injection
          is skipped and counted, like a crash of a dead replica. *)
  | Split of { shard : int; at : int }
      (** Split a shard of the elastic table (DESIGN.md §15); requires
          [sc_shards > 0]. [shard] is reduced modulo the table's size
          when the event fires, so the injection stays meaningful
          whatever earlier splits and merges did; an impossible split
          (arc too narrow, pool exhausted, orchestrator busy) is
          skipped and counted. *)
  | Merge of { left : int; at : int }
      (** Merge the adjacent shard pair at [left] (reduced modulo
          [size - 1] at fire time); skipped and counted if the table is
          down to one shard or the orchestrator is busy. *)

type workload =
  | Incr_all  (** every op is [Incr_all [0;1]] — cross-partition writes *)
  | Mixed  (** reads, writes, increments and snapshots (lincheck food) *)

type deployment = {
  pipeline : bool;
      (** the compartmentalized replica pipeline (DESIGN.md §12) *)
  fast_reads : bool;
      (** lease-based local reads (DESIGN.md §14); locally-served reads
          enter the linearizability history like any other operation.
          Lease and renewal cadence scale with the horizon. *)
  durability : bool;
      (** checkpointing and update-log compaction (DESIGN.md §13), the
          checkpoint interval scaled to a few hundred rounds per
          horizon. Off, runs are byte-identical to the pre-durability
          driver — the refinement suite relies on that. *)
  longhaul : bool;
      (** long horizon: the leader liveness poll is relaxed in
          proportion to the horizon, and a completed run also gets the
          driver's [Unbounded] flat-memory / O(delta)-rejoin verdict *)
}
(** The deployment a schedule runs under: the driver builds its
    configuration from it, and shrinking keeps it, so a pin replays
    under the deployment it failed in. *)

val no_features : deployment
(** Every feature off; JSON without a [deployment] field decodes to it. *)

val features : deployment -> string list
(** Names of the features switched on, in field order. *)

type t = {
  sc_seed : int;  (** engine + client-RNG seed *)
  sc_partitions : int;
  sc_replicas : int;
  sc_keys : int;
  sc_clients : int;
  sc_ops : int;  (** operations per client *)
  sc_workload : workload;
  sc_horizon_ns : int;
      (** virtual-time budget of the run: the driver declares a stall
          once this much simulated time passed with operations still
          outstanding ({!default_horizon_ns} for the classic families,
          minutes of virtual time for longhaul schedules) *)
  sc_think_ns : int;
      (** per-client pause between operations — 0 for the classic
          closed-loop families; longhaul schedules use it to spread
          traffic across the whole horizon *)
  sc_shards : int;
      (** deployment-time shards of the elastic topology (DESIGN.md
          §15): the driver runs with [Config.topology] enabled and this
          many initial shards when positive. 0 — the default, and what
          pinned JSON from before the field existed decodes to — runs
          with the topology off. *)
  sc_deployment : deployment;
  sc_events : event list;  (** sorted by {!event_time} *)
}

val default_horizon_ns : int
(** 60ms — the classic families' horizon, and the value assumed for
    pinned JSON written before the field existed. *)

val event_time : event -> int
val event_end : event -> int
(** [event_time] plus the span for spanned events. *)

val normalize : t -> t
(** Sort events by time (stable). *)

val generate : seed:int -> t
(** Derive a schedule from a seed, valid by construction and inside the
    liveness envelope: crash/restart rounds are sequential (at most one
    replica down at a time, never index 0 — the initial multicast
    leader), drop faults target cross-partition links only and end
    before the first crash, so a majority of announcements always gets
    through and the run must complete. Any failure under such a
    schedule is Heron's fault, not the schedule's. *)

val generate_reconfig : seed:int -> t
(** Like {!generate} but reconfiguration-focused: every schedule
    carries 1–3 migrations per crash/restart round, timed to overlap
    the window between the crash and the restart (plus slop on both
    sides), so crashes land during in-flight migrations and restarted
    replicas recover state that includes migrated-in objects. Same
    liveness envelope as {!generate}. *)

val generate_longhaul : seed:int -> t
(** Durability-focused generator (DESIGN.md §13): minutes of virtual
    time per schedule, client traffic paced with think time across the
    whole horizon, and 8–20 crash/rejoin cycles spaced tens of virtual
    seconds apart with migrations racing the down windows. Its
    deployment switches on [durability] and [longhaul]: the horizon
    spans hundreds of checkpoint intervals, so every rejoin exercises
    the bootstrap-from-checkpoint path and the driver's memory-bound and
    O(delta)-rejoin verdicts are meaningful. Same liveness envelope as
    {!generate}. The other generators leave every feature off. *)

val generate_elastic : seed:int -> t
(** Elastic-topology generator (DESIGN.md §15): a 4-group pool with 2
    deployment-time shards, and 1–2 shard splits/merges per
    crash/restart round timed to overlap the down window — so crashes
    land mid-split, between the freeze and the bootstrap, as often as
    possible — plus occasional object migrations interleaving override
    and table epochs. Same liveness envelope as {!generate}. *)

val validate : t -> (unit, string) result
(** Well-formedness (shape, ranges, sortedness, crash/restart
    alternation per replica, index 0 never crashed). Holds for
    generated schedules; shrunk subsets may legitimately leave a
    replica down forever but still satisfy this. *)

val to_json : t -> Heron_obs.Json.t
val of_json : Heron_obs.Json.t -> (t, string) result
(** Inverses: [of_json (to_json s) = Ok (normalize s)]. *)

val save : t -> file:string -> unit
val load : file:string -> (t, string) result

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
