(** Epoch-versioned placement: the one module that decides which
    partition homes an object (DESIGN.md §10, §15).

    The paper's oracle ([App.placement_of]) is a pure function fixed at
    deployment time. Live repartitioning changes placement in two ways,
    and both land in one versioned state, a {!type-view}: per-object
    overrides (a migration, §10) and the elastic shard table (a split or
    merge, §15). {!placement_under} resolves an object against a view,
    in one fixed order: the override wins, then the shard table, then
    the static oracle.

    A view exists in three roles:

    - the {e directory}'s view ({!type-t}), owned by the deployment
      ({!System.directory}) and advanced by {!commit} when a
      reconfiguration command ({!Heron_reconfig.Migration}) has been
      acknowledged by every partition;
    - one {e replica view} per replica, advanced by {!install} when the
      replica executes a [Migrate] command at its position in the
      delivery order — so every replica of a partition holds the same
      view at the same point of the order;
    - one {e client view} per client node, refreshed from the directory
      ({!copy_view}) only when a replica answers with a wrong-epoch
      redirect (clients cache an epoch, exactly like DynaStar's clients
      cache the location oracle).

    Epochs are strictly increasing integers; epoch 0 is the pure static
    oracle — or, with the topology enabled, the deployment-time shard
    table ({!Config.initial_shards}), which every party computes
    locally. Migrations and shard splits/merges share the one epoch
    counter, so redirect-chasing and the exclusive-orchestrator slot
    serialize them together. Views are cheap copies: an override table
    holds one entry per object that ever migrated, plus a shared
    immutable shard table. *)

type view

val fresh_view : ?shards:Heron_topology.Shard_map.t -> unit -> view
(** Epoch 0: the static oracle, or the initial shard table when given. *)

val epoch : view -> int

val lookup : view -> Oid.t -> int option
(** The object's override, if it ever migrated. *)

val shards : view -> Heron_topology.Shard_map.t option
(** The installed shard table, when the elastic topology is on. *)

val size : view -> int
(** Number of overrides. *)

val wire_bytes : view -> int
(** Serialized size of the view on the wire: overrides plus the shard
    table (transfer byte accounting). *)

val install :
  ?shards:Heron_topology.Shard_map.t ->
  view ->
  epoch:int ->
  moves:(Oid.t * int) list ->
  unit
(** Apply one command's moves (and new shard table, for a split or
    merge) to a view — a replica executing a [Migrate] command. Epochs
    advance monotonically; re-installing an already-seen epoch is
    idempotent. *)

val copy_view : src:view -> dst:view -> unit
(** Overwrite [dst] with [src]'s overrides, shard table and epoch: a
    client refreshing from the directory after a redirect, or a
    state-transfer donor shipping its placement alongside the object
    state. *)

val placement_under : view -> (Oid.t -> App.placement) -> Oid.t -> App.placement
(** Where an object lives under a view: the view's override if present,
    else the shard table's ring lookup if one is installed, otherwise
    the static placement. Replicated objects never migrate and are
    returned unchanged. *)

val destinations :
  view -> ('req, 'resp) App.t -> partitions:int -> 'req -> int list
(** {!App.destinations} computed under {!placement_under}. *)

(** {1 The directory} *)

type t
(** The authoritative directory: a view, plus the single-orchestrator
    slot that serializes commands. *)

val create : ?shards:Heron_topology.Shard_map.t -> unit -> t
(** [?shards] installs the deployment-time shard table (elastic
    topology); without it epoch 0 is the pure static oracle. *)

val attach_metrics : t -> Heron_obs.Metrics.t -> unit
(** Publish the directory's epoch as the [reconfig.epoch] gauge and,
    with a shard table, its size as the [topology.shards] gauge; every
    {!commit} republishes both. *)

val view : t -> view
(** The directory's current view. Read it; advance it only through
    {!commit}. *)

val commit :
  ?shards:Heron_topology.Shard_map.t ->
  t ->
  epoch:int ->
  moves:(Oid.t * int) list ->
  unit
(** {!install} a command that every partition acknowledged. Raises
    [Invalid_argument] unless [epoch = epoch (view t) + 1] (commands are
    serialized by {!begin_exclusive}). *)

val begin_exclusive : t -> bool
(** Try to acquire the single-orchestrator reconfiguration slot;
    [false] if a migration, split or merge is already in flight. *)

val end_exclusive : t -> unit
