(** Dual-versioned object store (paper Section III-A/B, Algorithm 2).

    Every object keeps two versions, each tagged with the timestamp of
    the request that created it. Readers take the freshest version
    strictly older than their request's timestamp; writers overwrite the
    older version. This lets a remote reader race with the local writer
    of the next request without locks.

    Objects come in two storage classes, mirroring the prototype
    (Section IV-A):

    - {!Registered}: serialized into an RDMA-registered region, so
      remote replicas can read the object's two-version cell with a
      single one-sided read. Fixed capacity, fixed object population
      (TPCC's Stock and Customer tables).
    - {!Local}: kept in an ordinary map, never read remotely, supports
      dynamic insertion (TPCC's Order tables, kept in HashMaps in the
      prototype).

    Cell layout of a registered object with capacity [cap] (all integers
    little-endian int64):
    [tmp_a][len_a][data_a: cap bytes][tmp_b][len_b][data_b: cap bytes],
    i.e. [32 + 2*cap] bytes. Timestamps are stored packed
    ({!Heron_multicast.Tstamp.to_int64}), so the atomic 8-byte
    granularity of RDMA covers them. *)

open Heron_multicast

type klass = Registered | Local

type t

val create : Heron_rdma.Fabric.node -> region_size:int -> t
(** A store for one replica, with one RDMA region of [region_size]
    bytes backing the registered objects. *)

val node : t -> Heron_rdma.Fabric.node

val register : t -> Oid.t -> klass:klass -> cap:int -> init:bytes -> unit
(** Register an object with initial value [init] at timestamp
    {!Tstamp.zero}. For {!Registered} objects [cap] bounds the value
    size forever; raises [Invalid_argument] if [init] exceeds it, the
    oid is already registered, or the region is out of space. *)

val mem : t -> Oid.t -> bool

val klass_of : t -> Oid.t -> klass
(** Raises [Not_found] for unregistered oids. *)

val get : t -> Oid.t -> bytes * Tstamp.t
(** Freshest version (the one with the larger timestamp). Raises
    [Not_found] for unknown oids. *)

type lookup =
  | Absent  (** no such object *)
  | Too_new
      (** both versions are at or past the bound — the caller is a
          lagger (Algorithm 2 lines 22-24) *)
  | Found of bytes * klass
      (** the freshest version with timestamp strictly smaller than
          the bound, and the object's class *)

val lookup_before : t -> Oid.t -> bound:Tstamp.t -> lookup
(** The dual-version read of the execution path, with the existence
    and class checks folded into one table lookup. [Too_new] results
    count into the [store.dual_version_miss] metric when one is
    attached. *)

val attach_metrics : t -> Heron_obs.Metrics.t -> unit
(** Count dual-version read misses (a [Too_new] from {!lookup_before})
    into the registry's [store.dual_version_miss] counter. *)

val get_at_most : t -> Oid.t -> bound:Tstamp.t -> (bytes * Tstamp.t) option
(** Freshest version with timestamp at most [bound], and its stamp
    (inclusive counterpart of {!lookup_before}; the state-transfer
    donor ships versions at or below its snapshot point). *)

val set : t -> Oid.t -> bytes -> tmp:Tstamp.t -> unit
(** Install a new version: overwrite the version whose timestamp equals
    [tmp] if one exists (idempotent re-execution), otherwise the older
    version. Unknown oids are inserted as {!Local} objects (dynamic
    insertion); the {!Registered} population is fixed at setup. *)

val insert_local : t -> Oid.t -> bytes -> tmp:Tstamp.t -> unit
(** Explicit dynamic insertion of a {!Local} object. *)

(** {1 Remote access to registered cells} *)

val cell_addr : t -> Oid.t -> Heron_rdma.Memory.addr
(** Address of a registered object's cell, as a remote peer would use
    it. Raises [Not_found] for {!Local} or unknown oids. *)

val cell_len : t -> Oid.t -> int
(** Byte length of the cell ([32 + 2*cap]). *)

val decode_cell : bytes -> (bytes * Tstamp.t) * (bytes * Tstamp.t)
(** Decode a raw cell (as returned by a one-sided read of
    [cell_len] bytes at [cell_addr]) into its two tagged versions. *)

val pick_version :
  (bytes * Tstamp.t) * (bytes * Tstamp.t) -> bound:Tstamp.t -> (bytes * Tstamp.t) option
(** Algorithm 2 line 22: the version with the larger timestamp that is
    still strictly smaller than [bound], if any. *)

val truncate_raw_cell : bytes -> bound:Tstamp.t -> bytes option
(** The cell's wire image with every version at or past [bound]
    dropped: the freshest surviving version fills both slots when only
    one survives, and [None] means the donor retains nothing older
    than [bound]. Migration bootstraps (DESIGN.md §10/§15) pull cells
    through this so a donor that has {e moved past} the migration —
    legal under the Phase-2 wait condition — cannot leak post-cut
    writes into a lagging destination replica's frozen copy. *)

val encode_cell_of : t -> Oid.t -> bytes
(** Raw cell bytes of a registered object (donor side of state
    transfer). *)

val write_raw_cell : t -> Oid.t -> bytes -> unit
(** Overwrite a registered object's cell with raw bytes (receiver side
    of state transfer via a direct RDMA write). *)

val value_size : t -> Oid.t -> int
(** Size in bytes of the freshest version's value. *)

val registered_oids : t -> Oid.t list
val local_oids : t -> Oid.t list
