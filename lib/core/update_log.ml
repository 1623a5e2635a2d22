open Heron_multicast

(* The retained entries live in one ring of unboxed ints, three per
   entry: the timestamp's clock, its uid, and the oid. Entry [i] (0 =
   oldest) sits at slot [(head + i) mod slots]. The ring starts small
   and doubles up to [capacity], so a short log never pays for a long
   one's bound. *)
type t = {
  capacity : int;
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  mutable trunc : Tstamp.t;  (* largest dropped timestamp *)
  mutable last : Tstamp.t;
}

let initial_slots = 64

let create ~capacity =
  if capacity <= 0 then invalid_arg "Update_log.create: capacity must be positive";
  {
    capacity;
    ring = Array.make (3 * min initial_slots capacity) 0;
    head = 0;
    len = 0;
    trunc = Tstamp.zero;
    last = Tstamp.zero;
  }

let slots t = Array.length t.ring / 3

(* Array offset of entry [i]. *)
let pos t i = 3 * ((t.head + i) mod slots t)

(* [compare (clock, uid) ts] without building a timestamp. *)
let cmp clock uid (ts : Tstamp.t) =
  match Int.compare clock ts.clock with 0 -> Int.compare uid ts.uid | c -> c

let entry_tmp t p = Tstamp.make ~clock:t.ring.(p) ~uid:t.ring.(p + 1)

let grow t =
  let n = slots t in
  let ring = Array.make (3 * min (2 * n) t.capacity) 0 in
  for i = 0 to t.len - 1 do
    Array.blit t.ring (pos t i) ring (3 * i) 3
  done;
  t.ring <- ring;
  t.head <- 0

let append t (tmp : Tstamp.t) oid =
  if Tstamp.(t.last < tmp) then t.last <- tmp;
  if t.len = t.capacity then begin
    (* Overflow: drop the oldest entry into the truncation point. *)
    let p = pos t 0 in
    if cmp t.ring.(p) t.ring.(p + 1) t.trunc > 0 then t.trunc <- entry_tmp t p;
    t.head <- (t.head + 1) mod slots t;
    t.len <- t.len - 1
  end
  else if t.len = slots t then grow t;
  let p = pos t t.len in
  t.ring.(p) <- tmp.clock;
  t.ring.(p + 1) <- tmp.uid;
  t.ring.(p + 2) <- oid;
  t.len <- t.len + 1

let note_gap t ~upto = if Tstamp.(t.trunc < upto) then t.trunc <- upto

let truncate t ~upto =
  (* Compact the survivors towards the head, keeping their order; the
     write position never overtakes the read position. *)
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let p = pos t i in
    if cmp t.ring.(p) t.ring.(p + 1) upto > 0 then begin
      if !kept <> i then Array.blit t.ring p t.ring (pos t !kept) 3;
      incr kept
    end
  done;
  let dropped = t.len - !kept in
  t.len <- !kept;
  if Tstamp.(t.trunc < upto) then t.trunc <- upto;
  dropped

let length t = t.len
let covers t ~from = Tstamp.(t.trunc < from)
let last_tmp t = t.last
let truncation t = t.trunc

(* Distinct oids of the entries whose timestamp [in_range] accepts, in
   first-update order. *)
let distinct_oids t in_range =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    let p = pos t i in
    let oid = t.ring.(p + 2) in
    if in_range t.ring.(p) t.ring.(p + 1) && not (Hashtbl.mem seen oid) then begin
      Hashtbl.replace seen oid ();
      acc := oid :: !acc
    end
  done;
  List.rev !acc

let oids_in_range t ~from ~upto =
  if not (covers t ~from) then
    invalid_arg "Update_log.oids_in_range: range behind truncation point";
  distinct_oids t (fun c u -> cmp c u from >= 0 && cmp c u upto <= 0)

let oids_after t ~after ~upto =
  if Tstamp.(after < t.trunc) then
    invalid_arg "Update_log.oids_after: suffix reaches behind truncation point";
  distinct_oids t (fun c u -> cmp c u after > 0 && cmp c u upto <= 0)
