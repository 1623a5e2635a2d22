(** Application interface to Heron (the paper's [exec_callback] plus
    the partitioning oracle, Section III-A).

    An application declares how its objects map onto partitions, how to
    estimate the read set of a request before execution (the standard
    partitioned-SMR assumption), and a deterministic execute callback
    with a reading phase (through {!type-ctx}) followed by a writing
    phase. Execution must be deterministic: every replica of every
    involved partition runs the same callback on the same inputs and
    must buffer identical writes, of which each replica applies only
    those local to its partition. *)

open Heron_sim

type placement =
  | Partition of int  (** the object lives in one partition *)
  | Replicated
      (** read-only object replicated in every partition (TPCC's
          Warehouse and Item tables, Section IV-A) *)

type obj_spec = {
  spec_oid : Oid.t;
  spec_placement : placement;
  spec_klass : Versioned_store.klass;
  spec_cap : int;  (** capacity for registered objects; ignored for local *)
  spec_init : bytes;
}
(** One object of the initial database. *)

type ctx = {
  ctx_partition : int;  (** the executing replica's partition *)
  ctx_tmp : Heron_multicast.Tstamp.t;  (** the request's timestamp *)
  ctx_read : Oid.t -> bytes;
      (** value of an object: from the prefetched read set, or — for
          objects local to this partition — read on demand (index
          lookups whose keys are only known during execution). Raises
          [Invalid_argument] for remote objects outside the read set. *)
  ctx_read_opt : Oid.t -> bytes option;
      (** existence-aware read of an object local to this partition (or
          replicated): [None] if it does not exist — for applications
          with dynamic namespaces (e.g. a coordination-service tree).
          Raises [Invalid_argument] for remote objects. *)
  ctx_is_local : Oid.t -> bool;
      (** whether writes to this object will be applied here *)
  ctx_write : Oid.t -> bytes -> unit;
      (** buffer a write; the replica applies local ones after the
          callback returns (writing phase) *)
  ctx_charge : Time_ns.t -> unit;
      (** charge simulated CPU time for application compute. The
          charge is added to the execution's debt, together with the
          replica's own read and write costs, and paid by one sleep
          before the next step another fiber can observe: a store
          write, a one-sided remote read, an exception leaving the
          execution, or its end. Those steps keep the instants that
          paying each charge on its own gave them; the callback's
          virtual clock ({!Heron_sim.Engine.self_now}) does not advance
          between charges, so its reads of the replica's own store
          (and the replica's access counting) happen at the instant
          the debt started. *)
}

type ('req, 'resp) t = {
  app_name : string;
  placement_of : Oid.t -> placement;
  klass_of : Oid.t -> Versioned_store.klass;
      (** storage class of an object: only [Registered] objects can be
          read from remote partitions; remote [Local] objects in a read
          set are skipped and the execute callback must guard accesses
          to them with [ctx_is_local] (partial execution,
          Section IV-A) *)
  read_set : 'req -> Oid.t list;
      (** objects the request may read, estimated before execution;
          used (with [write_sketch]) to route the request *)
  read_plan : part:int -> 'req -> Oid.t list;
      (** what a replica of partition [part] prefetches in its reading
          phase. Usually [read_set] everywhere; partial execution
          (Section IV-A) prunes it to the objects that partition
          actually needs — e.g. a supply-only partition of a TPCC
          NewOrder prefetches just its own stock rows *)
  write_sketch : 'req -> Oid.t list;
      (** objects the request may write, used only to compute the
          destination partition set; may over-approximate *)
  req_size : 'req -> int;  (** serialized request size (timing) *)
  resp_size : 'resp -> int;
  execute : ctx -> 'req -> 'resp;
  serial_hint : 'req -> bool;
      (** pipeline on ([Config.pipeline.pipe_enabled]) only: [true]
          forces a single-partition request to run alone on the
          delivery loop, like a barrier, instead of concurrently on the
          executor pool. Required for requests whose object footprint
          cannot be approximated from [read_plan]/[write_sketch] before
          execution (e.g. TPCC's Delivery, which follows index objects
          to rows chosen at run time). Not consulted with the pipeline
          off, where every request already runs alone. *)
  read_only : 'req -> bool;
      (** [true] promises the request never calls [ctx_write] (an empty
          [write_sketch] is necessary but not sufficient — this is the
          explicit declaration). Read-only single-partition requests
          are eligible for the lease-based local read fast path
          ({!Config.fast_reads}, DESIGN.md §14); a conservative
          [fun _ -> false] simply keeps every request on the ordered
          path. *)
  catalog : unit -> obj_spec list;  (** the initial database *)
}

val destinations : ('req, 'resp) t -> partitions:int -> 'req -> int list
(** Sorted set of partitions a request must be multicast to: the home
    partitions of its read set and write sketch ([Replicated] objects
    contribute nothing). Raises [Invalid_argument] if empty or if any
    partition is out of range. *)

val destinations_under :
  placement_of:(Oid.t -> placement) ->
  ('req, 'resp) t -> partitions:int -> 'req -> int list
(** {!destinations} computed under a substitute placement oracle — live
    repartitioning ({!Placement}) layers epoch-versioned overrides over
    the app's static [placement_of]. *)
