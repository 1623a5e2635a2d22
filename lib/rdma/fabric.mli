(** The simulated cluster: nodes with registered memory, crash and
    recovery, and processes pinned to nodes.

    A fabric groups nodes sharing one RDMA network. Each node owns
    memory regions, a broadcast signal raised whenever remote data lands
    in its memory (the simulator's stand-in for busy-polling, see
    DESIGN.md), and a cancellation token so that crashing the node stops
    every fiber running on it. *)

type t
(** The fabric. *)

type node
(** A server or client machine. *)

val create :
  ?metrics:Heron_obs.Metrics.t -> Heron_sim.Engine.t -> profile:Profile.t -> t
(** [metrics] is the registry the fabric's queue pairs (and anything
    else reading {!metrics}) record into; defaults to a fresh one. *)

val engine : t -> Heron_sim.Engine.t
val profile : t -> Profile.t

val metrics : t -> Heron_obs.Metrics.t
(** The fabric's metric registry. *)

val add_node : t -> name:string -> node
(** Register a fresh (alive) node. *)

val node_id : node -> int
val node_name : node -> string
val is_alive : node -> bool

val epoch : node -> int
(** Incarnation number, bumped by {!crash}. Lets a queue pair detect
    that its peer died (and possibly rebooted) between posting a verb
    and its completion: a reliable connection does not survive a peer
    reboot, so such verbs must fail rather than touch the rebooted
    node's memory. *)

val fabric_of : node -> t
(** The fabric a node belongs to. *)

val find_node : t -> int -> node
(** Node by id; raises [Not_found] for unknown ids. *)

val node_count : t -> int

val crash : node -> unit
(** Kill the node: every fiber spawned with {!spawn_on} is cancelled at
    its next suspension point, verbs targeting the node start failing,
    and writes in flight towards it are dropped. Idempotent. *)

val recover : ?wipe:bool -> node -> unit
(** Bring a crashed node back. With [~wipe:true] (the default) its
    memory regions are zeroed, modelling a process restart with empty
    volatile state; the caller must respawn the node's processes. *)

val spawn_on : node -> (unit -> unit) -> unit
(** Run a fiber on the node; it dies silently if the node crashes. *)

val alloc_region : node -> size:int -> Memory.region
(** Register a new RDMA memory region of [size] bytes on the node. *)

val region : node -> int -> Memory.region
(** Region by id; raises [Not_found]. *)

val mem_signal : node -> Heron_sim.Signal.t
(** Broadcast whenever a remote write or CAS lands in the node's
    memory. Local code waits on this instead of busy-polling. *)

(** {1 Link fault injection (chaos layer)}

    Faults are keyed by the directed (source id, destination id) pair
    and consulted by {!Qp} on every verb: [extra_ns] is added to the
    one-way completion latency of every verb on the link, and with
    [drop] set, {e posted} writes ([Qp.write_post] and doorbell
    batches) landing while the fault is active are silently dropped —
    exactly as they are towards a dead peer — and counted in
    [rdma.dropped_writes]. Blocking verbs are delayed but never
    dropped (RC transport retries until the transport timeout, which
    only a dead peer exhausts). *)

val set_link_fault :
  t -> src:int -> dst:int -> ?extra_ns:int -> ?drop:bool -> unit -> unit
(** Install (or overwrite) the fault on one directed link. Defaults:
    no extra latency, no dropping. *)

val clear_link_fault : t -> src:int -> dst:int -> unit
val clear_all_link_faults : t -> unit

val link_extra_ns : t -> src:int -> dst:int -> int
(** Extra one-way latency currently injected on the link (0 when
    healthy). *)

val link_drops : t -> src:int -> dst:int -> bool
(** Whether posted writes on the link are currently being dropped. *)

val local_read : node -> Memory.addr -> len:int -> bytes
(** Direct local access (no latency); [addr] must name this node. *)

val local_write : node -> Memory.addr -> bytes -> unit
(** Direct local write (no latency, no signal); [addr] must name this
    node. *)
