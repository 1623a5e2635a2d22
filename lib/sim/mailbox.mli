(** Unbounded FIFO message queue between fibers.

    [send] never blocks; [recv] blocks the calling fiber until a message
    is available. Messages are received in send order, and competing
    receivers are served in arrival order. Replica processes receive
    atomic-multicast deliveries and control messages through
    mailboxes. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Block until a message is available and dequeue it. A receiver
    whose fiber was cancelled while it waited hands the wakeup of the
    message that resumed it to the next waiting receiver. *)

val try_recv : 'a t -> 'a option
(** Dequeue a message if one is immediately available. *)

val length : 'a t -> int
(** Number of queued (unreceived) messages. *)

val is_empty : 'a t -> bool
