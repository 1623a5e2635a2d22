exception Cancelled

type token = { mutable cancelled : bool }

(* The event queue is split in two lanes that together run events in
   (at, seq) order, seq being the scheduling order:

   - a binary min-heap keyed on (at, seq) for events with a positive
     delay, kept in three parallel arrays so that keys are unboxed and
     a push or pop allocates nothing;
   - a FIFO ring for events scheduled with a zero delay (wakeups,
     spawns, [sleep 0]), which all land at the current instant.

   The loop runs heap events whose time equals the clock, then the
   ring, then advances the clock to the heap top. This is exact: a heap
   event due now was scheduled at an earlier instant (a positive delay
   lands strictly after the clock), so its seq is smaller than that of
   any ring event, which was scheduled now; and the ring is always
   empty when the clock advances. *)

let nop () = ()

type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  mutable fibers : int;
  (* Heap lane: slot i holds (at.(i), seq.(i), run.(i)). *)
  mutable at : int array;
  mutable seqs : int array;
  mutable run : (unit -> unit) array;
  mutable size : int;
  (* Zero-delay lane: [len] closures from [head], capacity a power of 2. *)
  mutable ring : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
  prng : Random.State.t;
}

type _ Effect.t +=
  | Sleep : Time_ns.t -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Now : Time_ns.t Effect.t

let create ?(seed = 42) () =
  {
    clock = 0;
    seq = 0;
    fibers = 0;
    at = Array.make 64 0;
    seqs = Array.make 64 0;
    run = Array.make 64 nop;
    size = 0;
    ring = Array.make 64 nop;
    head = 0;
    len = 0;
    prng = Random.State.make [| seed; 0x4845524f (* "HERO" *) |];
  }

let now t = t.clock
let rng t = t.prng
let new_token (_ : t) = { cancelled = false }
let cancel tok = tok.cancelled <- true
let is_cancelled tok = tok.cancelled
let pending_events t = t.size + t.len
let live_fibers t = t.fibers

let grow_heap t =
  let n = 2 * Array.length t.at in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.at <- extend t.at 0;
  t.seqs <- extend t.seqs 0;
  t.run <- extend t.run nop

(* Heap indices stay below [size] and ring indices are masked by the
   ring's capacity, both within the arrays' length, so the queue code
   reads and writes them unchecked. *)

(* Slot [i] sorts before the event (at, seq). *)
let[@inline] before ats seqs i at seq =
  let ai = Array.unsafe_get ats i in
  ai < at || (ai = at && Array.unsafe_get seqs i < seq)

(* Insert by moving a hole up from the new leaf. [seq] is larger than
   every queued seq, so [at] alone decides against a parent. *)
let heap_push t at seq f =
  if t.size = Array.length t.at then grow_heap t;
  let ats = t.at and seqs = t.seqs and run = t.run in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if at < Array.unsafe_get ats p then begin
      Array.unsafe_set ats !i (Array.unsafe_get ats p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set run !i (Array.unsafe_get run p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set run !i f

(* Remove the top (the heap must be non-empty) and return its closure.
   The hole left at the root walks down to a leaf along the smaller
   children, one comparison per level, and the last leaf is sifted up
   from there; it usually belongs near the bottom, so this beats
   sifting it down from the root, which compares twice per level. The
   vacated closure slot is cleared so the heap keeps nothing alive. *)
let heap_pop t =
  let ats = t.at and seqs = t.seqs and run = t.run in
  let top = Array.unsafe_get run 0 in
  let n = t.size - 1 in
  t.size <- n;
  let lat = Array.unsafe_get ats n and lseq = Array.unsafe_get seqs n in
  let lrun = Array.unsafe_get run n in
  Array.unsafe_set run n nop;
  if n > 0 then begin
    let i = ref 0 in
    while (2 * !i) + 1 < n do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n && before ats seqs (l + 1) (Array.unsafe_get ats l) (Array.unsafe_get seqs l)
        then l + 1
        else l
      in
      Array.unsafe_set ats !i (Array.unsafe_get ats c);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
      Array.unsafe_set run !i (Array.unsafe_get run c);
      i := c
    done;
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      if before ats seqs p lat lseq then moving := false
      else begin
        Array.unsafe_set ats !i (Array.unsafe_get ats p);
        Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
        Array.unsafe_set run !i (Array.unsafe_get run p);
        i := p
      end
    done;
    Array.unsafe_set ats !i lat;
    Array.unsafe_set seqs !i lseq;
    Array.unsafe_set run !i lrun
  end;
  top

let ring_push t f =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let b = Array.make (2 * cap) nop in
    for k = 0 to t.len - 1 do
      b.(k) <- t.ring.((t.head + k) land (cap - 1))
    done;
    t.ring <- b;
    t.head <- 0
  end;
  let ring = t.ring in
  Array.unsafe_set ring ((t.head + t.len) land (Array.length ring - 1)) f;
  t.len <- t.len + 1

(* The ring must be non-empty. *)
let ring_pop t =
  let ring = t.ring and h = t.head in
  let f = Array.unsafe_get ring h in
  Array.unsafe_set ring h nop;
  t.head <- (h + 1) land (Array.length ring - 1);
  t.len <- t.len - 1;
  f

(* [schedule] without the optional argument, whose [Some] would cost an
   allocation per call. *)
let enqueue t delay run =
  t.seq <- t.seq + 1;
  if delay <= 0 then ring_push t run else heap_push t (t.clock + delay) t.seq run

let schedule ?(delay = 0) t run = enqueue t delay run

let spawn ?token ?name t f =
  let tok = match token with Some tok -> tok | None -> { cancelled = false } in
  t.fibers <- t.fibers + 1;
  let open Effect.Deep in
  (* Resume a parked continuation, honouring cancellation: a fiber whose
     token fired is discontinued so its stack unwinds cleanly. *)
  let resume : (unit, unit) continuation -> unit =
   fun k -> if tok.cancelled then discontinue k Cancelled else continue k ()
  in
  let handler =
    {
      retc = (fun () -> t.fibers <- t.fibers - 1);
      exnc =
        (fun e ->
          t.fibers <- t.fibers - 1;
          match e with
          | Cancelled -> ()
          | e ->
              (* The raise below unwinds through the event loop, losing
                 the raise site; print it here (where the backtrace is
                 still intact) when tracing is requested. *)
              if Sys.getenv_opt "HERON_FIBER_TRACE" <> None then
                Printf.eprintf "fiber %s died: %s\n%s\n%!"
                  (match name with Some n -> n | None -> "(unnamed)")
                  (Printexc.to_string e)
                  (Printexc.get_backtrace ());
              raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
              Some
                (fun (k : (a, _) continuation) ->
                  enqueue t d (fun () -> resume k))
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let fired = ref false in
                  let wake () =
                    if not !fired then begin
                      fired := true;
                      enqueue t 0 (fun () -> resume k)
                    end
                  in
                  register wake)
          | Now -> Some (fun (k : (a, _) continuation) -> continue k t.clock)
          | _ -> None);
    }
  in
  enqueue t 0 (fun () ->
      if tok.cancelled then t.fibers <- t.fibers - 1
      else match_with f () handler)

(* Run the next event if it is due no later than [horizon]: a heap event
   at the current instant, else the ring, else the heap top. *)
let step t horizon =
  if t.size > 0 && t.at.(0) = t.clock then begin
    (heap_pop t) ();
    true
  end
  else if t.len > 0 then begin
    (ring_pop t) ();
    true
  end
  else if t.size > 0 && t.at.(0) <= horizon then begin
    t.clock <- t.at.(0);
    (heap_pop t) ();
    true
  end
  else false

let run t = while step t max_int do () done

let run_until t horizon =
  if horizon >= t.clock then begin
    while step t horizon do () done;
    t.clock <- horizon
  end

let run_for t d = run_until t (t.clock + d)
let sleep d = Effect.perform (Sleep d)
let consume d = Effect.perform (Sleep d)
let suspend register = Effect.perform (Suspend register)
let self_now () = Effect.perform Now
