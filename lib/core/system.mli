(** Deployment builder and client API.

    A system is a complete Heron deployment: a simulated fabric, one
    atomic-multicast group per partition, [replicas] Heron replicas per
    partition preloaded with the application's catalog, and any number
    of client nodes.

    {[
      let eng = Engine.create () in
      let sys = System.create eng ~cfg:(Config.default ~partitions:2 ~replicas:3) ~app in
      System.start sys;
      let client = System.new_client_node sys ~name:"c0" in
      Fabric.spawn_on client (fun () ->
          let responses = System.submit sys ~from:client my_request in
          ...);
      Engine.run_until eng (Time_ns.ms 100)
    ]} *)

open Heron_sim

type ('req, 'resp) t

val create :
  Engine.t -> cfg:Config.t -> app:('req, 'resp) App.t -> ('req, 'resp) t
(** Build the deployment and load the application catalog into every
    replica's store. Replicated objects are installed in every
    partition; partitioned objects in their home partition only.
    Raises [Invalid_argument] when the pipeline is on with
    [pipe_executors < 1] or [pipe_batch_size < 1]. *)

val start : ('req, 'resp) t -> unit
(** Spawn the multicast and replica processes. *)

val engine : ('req, 'resp) t -> Engine.t
val fabric : ('req, 'resp) t -> Heron_rdma.Fabric.t
val config : ('req, 'resp) t -> Config.t
val app : ('req, 'resp) t -> ('req, 'resp) App.t

val replica : ('req, 'resp) t -> part:int -> idx:int -> ('req, 'resp) Replica.t
val replicas : ('req, 'resp) t -> ('req, 'resp) Replica.t array array

val multicast :
  ('req, 'resp) t -> ('req, 'resp) Replica.msg Heron_multicast.Ramcast.t
(** The underlying multicast system (tests, monitoring, and the
    migration orchestrator, which multicasts [Migrate] commands). *)

val directory : ('req, 'resp) t -> Placement.t
(** The deployment's authoritative placement directory: epoch 0 with no
    overrides — and, with the elastic topology on, the deployment-time
    shard table — until migrations, splits or merges
    ({!Heron_reconfig.Migration}) commit. Clients cache views of it and
    refresh on wrong-epoch redirects. *)

val new_client_node : ('req, 'resp) t -> name:string -> Heron_rdma.Fabric.node
(** Add a client machine to the fabric. *)

val submit : ('req, 'resp) t -> from:Heron_rdma.Fabric.node -> 'req -> (int * 'resp) list
(** Submit a request from a fiber running on client node [from]:
    multicast it to the partitions derived from its read set and write
    sketch, then block until one replica of each destination partition
    replied. Returns the responses as [(partition, response)] pairs in
    partition order. The destinations come from the client's cached
    placement view (the static oracle until a reconfiguration commits);
    on a wrong-epoch redirect the client refreshes the view from
    {!directory}, recomputes the destinations and retries
    transparently. *)

val restart_replica : ('req, 'resp) t -> part:int -> idx:int -> unit
(** Recover a crashed replica (paper Section V-E's worst case): bring
    the node back with empty volatile memory, rebuild the replica
    process with the initial catalog, rejoin the atomic-multicast group
    as a follower, pull the complete state from a peer through the
    state-transfer protocol (Algorithm 3), and resume execution.
    Deliveries arriving during the transfer queue up and are then
    skipped or executed as their timestamps dictate. The replica must
    currently be crashed and must not have been the multicast group's
    leader. *)

val submit_to :
  ('req, 'resp) t ->
  from:Heron_rdma.Fabric.node ->
  dst:int list ->
  'req ->
  (int * 'resp) list
(** Like {!submit} with an explicit destination partition set, for
    workloads that pin requests to chosen partitions (Figure 6's
    fixed-partition-count experiments). *)
