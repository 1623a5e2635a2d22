(** Reconfiguration commands: online object migration (DESIGN.md §10)
    and shard splits and merges (DESIGN.md §15).

    All three are one command. Each validates its input, works out what
    moves, and hands a [Replica.Migrate] command to one private path:
    take the directory's exclusive slot, multicast the command through
    the ordinary atomic multicast to {e every} partition — so any
    concurrent request shares a relative delivery order with it at all
    of its destinations and the keep-or-redirect routing decision is
    uniform — wait for each partition to acknowledge, and commit the
    command to the deployment's placement directory. Requests ordered
    before the command execute under the old placement; requests routed
    under a stale view after it are redirected and retried by the
    client.

    - [migrate] moves a batch of objects to a partition; the command
      carries per-object overrides.
    - [split] carves a shard's arc in two: the left half stays with the
      parent replica group, the right half goes to a dormant group of
      the pool chosen by ring succession from the cut point. [merge] is
      the inverse: two adjacent arcs re-join under the left group and
      the right group returns to the pool. Both commands carry the full
      replacement shard table and the carved catalog objects, so the
      Phase-2 barrier freezes the moved keys at a single point of the
      total order and the destination group bootstraps their
      dual-version cells through the state-sync fetch path.

    Commands serialize through the directory's exclusive slot: a call
    made while another migration, split or merge is in flight returns
    [Error] instead of queueing. Must be called from a fiber on a client
    node (it blocks on the per-partition acknowledgements).

    Metrics: [reconfig.migrations] and [reconfig.objects_moved] count
    migrations; [topology.splits], [topology.merges] and
    [topology.objects_moved] count splits and merges (the directory
    publishes [topology.shards]). With [Config.reqtrace] set, each split
    or merge is one trace ([op=split] or [op=merge]) with replica-side
    [reshard.freeze] / [reshard.bootstrap] spans and an orchestrator
    [split.commit] / [merge.commit] span; migrations are not traced. *)

open Heron_core

val migrate :
  ('req, 'resp) System.t ->
  from:Heron_rdma.Fabric.node ->
  oids:Oid.t list ->
  dst:int ->
  (unit, string) result
(** Move [oids] — registered, partition-placed objects all currently
    homed at one common source partition — to [dst]. Blocks until every
    partition acknowledged the command and the directory committed the
    new epoch. [Error] (with a reason) if reconfiguration is disabled,
    the batch is empty or heterogeneous, [dst] is out of range or equal
    to the source, no live source replica holds the objects, or another
    command is in flight. *)

type reshard = {
  rs_epoch : int;  (** placement epoch the operation installed *)
  rs_src : int;  (** group the carved keys left *)
  rs_dst : int;  (** group the carved keys joined *)
  rs_moved : int;  (** catalog objects whose home changed *)
}

val split :
  ('req, 'resp) System.t ->
  from:Heron_rdma.Fabric.node ->
  shard:int ->
  (reshard, string) result
(** Halve shard [shard] (an index into the committed table). Objects
    pinned elsewhere by a migration stay where they are. [Error] if the
    topology is disabled, the index is out of range, the arc is too
    narrow, no free group remains in the pool, or another command holds
    the exclusive slot. *)

val merge :
  ('req, 'resp) System.t ->
  from:Heron_rdma.Fabric.node ->
  left:int ->
  (reshard, string) result
(** Join shards [left] and [left + 1] under the left group. [Error] if
    the topology is disabled, there is no adjacent pair at [left], or
    another command holds the exclusive slot. *)
