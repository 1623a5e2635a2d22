(** RDMA-registered memory regions and remote addresses.

    A region is a flat byte buffer registered on a node; remote peers
    address it as [(node, region id, offset)]. Accessors mirror what
    RDMA hardware guarantees: arbitrary byte ranges for payloads plus
    atomic 8-byte words (used for timestamps and coordination flags,
    see paper Section III-B "atomicity and coherence of timestamps"). *)

type region = private { rid : int; buf : Bytes.t }

type addr = { mem_node : int; mem_rid : int; mem_off : int }
(** A remote (or local) memory location. *)

val make_region : rid:int -> size:int -> region
(** A zero-filled region. *)

val region_size : region -> int

val wipe : region -> unit
(** Zero the region (models losing volatile memory on a crash). *)

val read_bytes : region -> off:int -> len:int -> bytes
(** Copy [len] bytes out of the region. Raises [Invalid_argument] on
    out-of-bounds access. *)

val write_bytes : region -> off:int -> bytes -> unit
(** Copy a payload into the region. *)

val get_i64 : region -> off:int -> int64

val get_int : region -> off:int -> int
(** [Int64.to_int (get_i64 r ~off)], without boxing the [int64]. *)

val set_i64 : region -> off:int -> int64 -> unit

val addr : node:int -> region -> off:int -> addr
(** [addr ~node r ~off] names offset [off] of [r] on [node]. *)

val shift : addr -> int -> addr
(** [shift a n] is [a] moved [n] bytes forward. *)
