(** Heron deployment configuration and calibrated cost model.

    The cost constants are the simulation's substitute for the paper's
    Java prototype running on CloudLab XL170 nodes; see DESIGN.md for
    the calibration targets (Figure 6's latency breakdown, Figure 8's
    state-transfer costs). *)

type coord_wait =
  | Majority  (** proceed as soon as a majority per partition answered *)
  | Grace of int
      (** after a majority, wait up to this many ns for the remaining
          replicas — the paper's anti-lagger heuristic *)
  | Wait_all
      (** wait for every replica; used by the Table I experiment, which
          measures how long "waiting for all" actually takes *)

type costs = {
  exec_base_ns : int;  (** fixed dispatch cost per executed request *)
  read_local_ns : int;  (** access to a Local-class (map) object *)
  write_local_ns : int;
  deser_per_byte_x100 : int;
      (** deserialization of Registered (serialized) values,
          hundredths of ns per byte *)
  ser_per_byte_x100 : int;
  coord_post_ns : int;
      (** CPU cost of preparing and posting one coordination write
          (work-request setup in the user-level verbs library); paid
          per destination replica before the coordination wait begins *)
  hiccup_pct : int;
      (** probability (percent) that a request execution suffers a
          runtime hiccup (GC pause, cache pollution — the paper's 1WH
          CDF shows ~8% such outliers); source of the genuine
          replica skew behind Table I's delayed transactions *)
  hiccup_max_ns : int;  (** hiccup duration is uniform in [1us, max] *)
  coord_check_slot_ns : int;
      (** granularity of the coordination polling loop, per slot
          scanned: the time between observing the majority condition and
          completing the all-replicas check is this times the number of
          (replica, partition) slots involved. A real replica busy-polls
          its coordination memory; announcements landing within one loop
          iteration are seen together (Table I's instrumentation
          point). *)
  transfer_chunk_bytes : int;
      (** RDMA payload size for state transfer (32 KB in the paper) *)
  redirect_backoff_ns : int;
      (** client pause before retrying a wrong-epoch redirect whose
          refresh observed no new placement epoch (the migration that
          triggered the redirect has not committed yet) *)
}

type reconfig = {
  enabled : bool;
      (** accept [Migrate] commands, track per-object access counts and
          size registered-store regions for the whole catalog (any
          object may migrate in). Off reproduces the static paper
          system: no redirects, no counters, per-partition regions. *)
}

type durability = {
  dur_enabled : bool;
      (** run the per-replica checkpoint fiber (DESIGN.md §13): snapshot
          the versioned store periodically, publish the checkpoint
          frontier through coordination memory, truncate the update log
          (and reset access-counter history) behind the slowest live
          replica's published frontier. A rejoining replica then
          bootstraps from the donor's checkpoint plus the O(delta)
          update-log suffix instead of a full-store snapshot. The
          multicast reclaims its own log either way. Off (the default)
          is behavior-identical to the pre-durability system: no
          checkpoint fiber is spawned and no update-log entry is ever
          truncated early. *)
  dur_interval_ns : int;
      (** virtual-time period between checkpoints on each replica *)
}

type pipeline = {
  pipe_enabled : bool;
      (** switch for the compartmentalized replica pipeline (DESIGN.md
          §12). On: a client-side batcher accumulates single-partition
          requests per destination partition and submits them as one
          multicast entry ([Replica.Batch]) — one Skeen round, one log
          replication write and one commit per batch; the replica's
          delivery loop admits non-conflicting single-partition requests
          into a bounded queue drained by an executor-fiber pool; and a
          coordination-writer fiber owns outbound Phase-2/4 announces.
          Multi-partition requests bypass the batcher (they barrier
          every destination's loop, so a batch window only adds
          latency). Off (the default): no batcher, and the same delivery
          loop executes every request inline, in delivery order — the
          paper's single-threaded prototype. *)
  pipe_batch_size : int;
      (** flush a destination's batch at this many requests; must be at
          least 1 when the pipeline is on *)
  pipe_flush_timeout_ns : int;
      (** flush an incomplete batch this many virtual ns after its first
          request arrived, bounding queueing delay at low load *)
  pipe_executors : int;
      (** executor fibers per replica draining the admitted-request
          queue — the multi-threaded execution of single-partition
          requests the paper leaves as future work (Section III-D.1).
          Only non-conflicting single-partition requests overlap;
          multi-partition requests, serial-hint payloads and migrations
          are barriers. Must be at least 1 when the pipeline is on. *)
}

type fast_reads = {
  fr_enabled : bool;
      (** lease-based local linearizable reads (DESIGN.md §14): each
          replica periodically multicasts a read-lease grant to its own
          partition through the total order, publishes its applied
          frontier to its peers' lease memory, and writers commit-wait
          until every unexpired lease holder has applied their entry
          before replying. Eligible read-only single-partition requests
          are then served by any replica from the dual-version store
          without touching the multicast, falling back to the ordered
          path on any doubt (expired or unapplied lease, foreign or
          migrating object, replica in recovery). Off (the default) is
          behavior-identical to the ordered-only system: no grants, no
          frontier fan-out, no commit-wait. *)
  fr_lease_ns : int;
      (** lease validity window: a grant made at virtual time [t]
          covers reads until [t + fr_lease_ns]. After a crash, writers
          stall at most this long before the dead holder's lease
          expires out of the commit-wait set. *)
  fr_renew_ns : int;
      (** period of each replica's lease-renewal fiber; must be well
          under [fr_lease_ns] or the fast path blinks off between
          grants *)
  fr_write_wait : bool;
      (** writers wait for every unexpired lease holder to apply before
          replying (the invalidation half of the protocol). Turning
          this off deliberately re-introduces stale reads — it exists
          only so the chaos sweep can prove it would catch them
          (test_chaos's stale-read regression). *)
}

type topology = {
  topo_enabled : bool;
      (** elastic shard topology (DESIGN.md §15): the [partitions]
          count becomes a {e server pool} of provisioned replica
          groups, object homes resolve through a ring-hashed shard
          table layered under {!Placement}, and shards split and merge
          at runtime through the total order. Requires
          [reconfig.enabled] (splits ride the Migrate machinery) and a
          catalog whose partition-placed objects are all [Registered]
          (their cells move with the shard). Off (the default) is
          behavior-identical to the fixed-partition system: no shard
          table exists and the static oracle decides placement. *)
  topo_shards : int;
      (** shards active at deployment time; the remaining
          [partitions - topo_shards] groups start dormant, holding no
          keys until a split assigns them an arc. Must satisfy
          [1 <= topo_shards <= partitions]. *)
}

type t = {
  partitions : int;
  replicas : int;  (** per partition; odd *)
  profile : Heron_rdma.Profile.t;
  mcast : Heron_multicast.Ramcast.config;
  costs : costs;
  wait_phase4 : coord_wait;
      (** Phase 4's policy after its majority. Phase 2 has no knob: it
          always proceeds on a majority per involved partition (the
          paper's item 1); only Phase 4 adds the anti-lagger grace. *)
  statesync_timeout_ns : int;
      (** per-candidate timeout in donor selection (Algorithm 3); must
          exceed the worst-case transfer time or backup candidates start
          duplicate transfers *)
  addr_query_ns : int;
      (** modelled cost of the one-time remote object address query
          (Algorithm 2 lines 8-13) *)
  reconfig : reconfig;
      (** live repartitioning (DESIGN.md §10); disabled by default *)
  pipeline : pipeline;
      (** compartmentalized replica pipeline and concurrent execution
          of single-partition requests (DESIGN.md §12); disabled by
          default *)
  durability : durability;
      (** checkpointing + update-log compaction (DESIGN.md §13);
          disabled by default *)
  fast_reads : fast_reads;
      (** lease-based local reads (DESIGN.md §14); disabled by default *)
  topology : topology;
      (** elastic shard topology (DESIGN.md §15); disabled by default *)
  metrics : Heron_obs.Metrics.t;
      (** registry the whole deployment records into: the fabric's RDMA
          verb series, the multicast counters and the replicas' series
          all share it. It is the only place a replica records; its
          series carry [part] and [idx] labels, and readers merge them
          with [Metrics.find] (DESIGN.md §8). [default] makes a fresh
          registry on every call, so each deployment owns its own;
          substitute a shared one ([{ cfg with metrics = reg }]) to
          aggregate several deployments. *)
  reqtrace : Heron_obs.Reqtrace.t option;
      (** request-scoped causal tracing (DESIGN.md §11): when set,
          clients mint a trace per request, the protocol layers emit
          parent-linked spans into the collector, and finished trees
          feed the [req.stage_ns{stage=...}] critical-path histograms
          in [metrics]. [None] (the default) records nothing and adds
          no cost. *)
}

val default_costs : costs
val default_reconfig : reconfig

val default_durability : durability
(** Disabled; when [dur_enabled] is flipped on, the default checkpoint
    interval is 2ms of virtual time. *)

val default_pipeline : pipeline
(** Disabled; when [pipe_enabled] is flipped on, the defaults are
    batches of 8 with a 15us flush timeout and 4 executors. *)

val default_fast_reads : fast_reads
(** Disabled; when [fr_enabled] is flipped on, the defaults are a 2ms
    lease renewed every 800us, with writer commit-wait on. *)

val default_topology : topology
(** Disabled; when [topo_enabled] is flipped on, one initial shard
    owns the whole ring unless [topo_shards] says otherwise. *)

val initial_shards : t -> Heron_topology.Shard_map.t option
(** The epoch-0 shard table implied by the config — [None] with the
    topology off. A pure function of [partitions] and [topology], so
    every replica, client and the directory compute the same table
    locally. Raises [Invalid_argument] when [topo_shards] is out of
    range. *)

val default : partitions:int -> replicas:int -> t
(** Grace-based phase-4 coordination, calibrated defaults. Raises
    [Invalid_argument] for non-positive or even replica counts. *)
