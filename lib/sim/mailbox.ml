type 'a t = { items : 'a Queue.t; mutable readers : (unit -> unit) Queue.t }

let create () = { items = Queue.create (); readers = Queue.create () }

let send mb v =
  Queue.push v mb.items;
  (* Wake one reader per available message; the woken fiber re-checks
     the queue so spurious wakeups are safe. *)
  if not (Queue.is_empty mb.readers) then (Queue.pop mb.readers) ()

let try_recv mb = Queue.take_opt mb.items

let rec recv mb =
  match Queue.take_opt mb.items with
  | Some v -> v
  | None ->
      (try Engine.suspend (fun wake -> Queue.push wake mb.readers)
       with Engine.Cancelled as e ->
         (* Woken after its fiber was cancelled (its node crashed): the
            wakeup was for a message this reader will never take, so
            pass it on, or a live reader waits for the next send. *)
         if not (Queue.is_empty mb.items || Queue.is_empty mb.readers) then
           (Queue.pop mb.readers) ();
         raise e);
      recv mb

let length mb = Queue.length mb.items
let is_empty mb = Queue.is_empty mb.items
