(* Tests for heron_core: the dual-versioned store, coordination
   memories, the update log, and end-to-end consistency of the full
   system on the KV/bank application — including the Figure 3
   scenarios the paper's Phases 2 and 4 exist to prevent, and
   lagger/state-transfer behaviour. *)

open Heron_sim
open Heron_rdma
open Heron_multicast
open Heron_core
open Heron_kv

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)
let check_str = Alcotest.(check string)
let tmp c = Tstamp.make ~clock:c ~uid:c

(* {1 Versioned_store} *)

let make_store () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let node = Fabric.add_node fab ~name:"s" in
  (eng, Versioned_store.create node ~region_size:4096)

let b s = Bytes.of_string s
let bs by = Bytes.to_string by

(* The value an execution read at [bound] sees; [None] on a lagger
   miss. *)
let before st oid ~bound =
  match Versioned_store.lookup_before st oid ~bound with
  | Versioned_store.Found (v, _) -> Some (bs v)
  | Versioned_store.Too_new -> None
  | Versioned_store.Absent -> Alcotest.fail "object absent"

let test_store_register_get () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  let v, t = Versioned_store.get st 1 in
  Alcotest.(check string) "initial value" "v0" (bs v);
  check_bool "initial tmp is zero" true (Tstamp.equal t Tstamp.zero);
  check_bool "mem" true (Versioned_store.mem st 1);
  check_bool "not mem" false (Versioned_store.mem st 2)

let test_store_dual_versioning () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "v1") ~tmp:(tmp 1);
  Versioned_store.set st 1 (b "v2") ~tmp:(tmp 2);
  (* Newest wins for get; both recent versions remain readable. *)
  Alcotest.(check string) "newest" "v2" (bs (fst (Versioned_store.get st 1)));
  Alcotest.(check (option string)) "older version survives" (Some "v1")
    (before st 1 ~bound:(tmp 2));
  (match Versioned_store.get_at_most st 1 ~bound:(tmp 1) with
  | Some (_, t) -> check_bool "its tag" true (Tstamp.equal t (tmp 1))
  | None -> Alcotest.fail "expected version at tmp 1");
  (* v0 was overwritten (it was the older version), so a reader bounded
     below both versions sees the lagger condition. *)
  Alcotest.(check (option string)) "lagger condition" None (before st 1 ~bound:(tmp 1))

let test_store_set_same_tmp_idempotent () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "a") ~tmp:(tmp 5);
  Versioned_store.set st 1 (b "b") ~tmp:(tmp 5);
  Alcotest.(check string) "overwrote same version" "b"
    (bs (fst (Versioned_store.get st 1)));
  (* The other slot still holds the initial version. *)
  match Versioned_store.get_at_most st 1 ~bound:(tmp 4) with
  | Some (v, t) ->
      Alcotest.(check string) "v0 value" "v0" (bs v);
      check_bool "v0 intact" true (Tstamp.equal t Tstamp.zero)
  | None -> Alcotest.fail "initial version lost"

let test_store_local_class () =
  let _, st = make_store () in
  Versioned_store.register st 7 ~klass:Versioned_store.Local ~cap:0 ~init:(b "x");
  Versioned_store.set st 7 (b "y") ~tmp:(tmp 3);
  Alcotest.(check string) "local set/get" "y" (bs (fst (Versioned_store.get st 7)));
  check_bool "no cell addr for local" true
    (try
       ignore (Versioned_store.cell_addr st 7);
       false
     with Not_found -> true);
  (* Dynamic insertion through set. *)
  Versioned_store.set st 99 (b "new") ~tmp:(tmp 4);
  Alcotest.(check string) "inserted" "new" (bs (fst (Versioned_store.get st 99)));
  check_bool "inserted as local" true (Versioned_store.klass_of st 99 = Versioned_store.Local)

let test_store_cell_roundtrip () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "vv1") ~tmp:(tmp 1);
  let raw = Versioned_store.encode_cell_of st 1 in
  check_int "cell length" (Versioned_store.cell_len st 1) (Bytes.length raw);
  let (va, ta), (vb, tb) = Versioned_store.decode_cell raw in
  let newest = if Tstamp.(tb <= ta) then (va, ta) else (vb, tb) in
  Alcotest.(check string) "decode newest" "vv1" (bs (fst newest));
  check_bool "decode tag" true (Tstamp.equal (snd newest) (tmp 1))

let test_store_write_raw_cell () =
  let _, st1 = make_store () in
  let _, st2 = make_store () in
  List.iter
    (fun st ->
      Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16
        ~init:(b "v0"))
    [ st1; st2 ];
  Versioned_store.set st1 1 (b "donor") ~tmp:(tmp 9);
  Versioned_store.write_raw_cell st2 1 (Versioned_store.encode_cell_of st1 1);
  Alcotest.(check string) "cell copied" "donor" (bs (fst (Versioned_store.get st2 1)));
  check_bool "tag copied" true (Tstamp.equal (snd (Versioned_store.get st2 1)) (tmp 9))

let test_store_capacity_checks () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:4 ~init:(b "ab");
  check_bool "oversized set rejected" true
    (try
       Versioned_store.set st 1 (b "abcdef") ~tmp:(tmp 1);
       false
     with Invalid_argument _ -> true);
  check_bool "oversized init rejected" true
    (try
       Versioned_store.register st 2 ~klass:Versioned_store.Registered ~cap:2
         ~init:(b "xyz");
       false
     with Invalid_argument _ -> true);
  check_bool "duplicate registration rejected" true
    (try
       Versioned_store.register st 1 ~klass:Versioned_store.Local ~cap:0 ~init:(b "");
       false
     with Invalid_argument _ -> true)

let test_store_get_at_most () =
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "v3") ~tmp:(tmp 3);
  Versioned_store.set st 1 (b "v5") ~tmp:(tmp 5);
  (match Versioned_store.get_at_most st 1 ~bound:(tmp 5) with
  | Some (v, _) -> Alcotest.(check string) "inclusive bound" "v5" (bs v)
  | None -> Alcotest.fail "expected v5");
  (match Versioned_store.get_at_most st 1 ~bound:(tmp 4) with
  | Some (v, _) -> Alcotest.(check string) "between versions" "v3" (bs v)
  | None -> Alcotest.fail "expected v3");
  check_bool "below both" true (Versioned_store.get_at_most st 1 ~bound:(tmp 2) = None)

let store_version_prop =
  (* After any sequence of sets at increasing timestamps, get returns
     the last set, and lookup_before any bound returns the newest version
     strictly below it among the last two sets. *)
  QCheck.Test.make ~name:"store holds the two newest versions" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (int_bound 50))
    (fun values ->
      let _, st = make_store () in
      Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:8
        ~init:(b "i");
      List.iteri
        (fun i v ->
          Versioned_store.set st 1 (Bytes.of_string (string_of_int v)) ~tmp:(tmp (i + 1)))
        values;
      let n = List.length values in
      let last = List.nth values (n - 1) in
      let ok_newest = bs (fst (Versioned_store.get st 1)) = string_of_int last in
      let ok_prev =
        if n < 2 then true
        else
          before st 1 ~bound:(tmp n) = Some (string_of_int (List.nth values (n - 2)))
      in
      ok_newest && ok_prev)

let test_store_remote_read_write_race () =
  (* Algorithm 2's lock-free race: a remote reader snapshots the cell
     with a one-sided read while the local writer installs the next
     version. Whichever side wins, the reader's version survives,
     because the writer only overwrites the version no current reader
     can want (the older one). *)
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "v5") ~tmp:(tmp 5);
  (* Reader of request 8 wants the freshest version < 8, i.e. v5. *)
  let before = Versioned_store.encode_cell_of st 1 in
  Versioned_store.set st 1 (b "v8") ~tmp:(tmp 8);
  let after = Versioned_store.encode_cell_of st 1 in
  List.iter
    (fun snap ->
      match
        Versioned_store.pick_version (Versioned_store.decode_cell snap) ~bound:(tmp 8)
      with
      | Some (v, t) ->
          Alcotest.(check string) "reader sees v5 either way" "v5" (bs v);
          check_bool "tag" true (Tstamp.equal t (tmp 5))
      | None -> Alcotest.fail "reader lost its version to the race")
    [ before; after ];
  (* A reader two requests behind is the one casualty: after v8 lands,
     bound 5 finds nothing — the lagger condition that triggers
     Algorithm 3 — rather than a wrong value. *)
  check_bool "pre-race snapshot still serves bound 5" true
    (Versioned_store.pick_version (Versioned_store.decode_cell before) ~bound:(tmp 5)
    <> None);
  check_bool "post-race lagger miss" true
    (Versioned_store.pick_version (Versioned_store.decode_cell after) ~bound:(tmp 5)
    = None)

let test_store_out_of_order_writes () =
  (* Parallel workers may install versions out of timestamp order; the
     two-slot rule keeps reads coherent. *)
  let _, st = make_store () in
  Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:16 ~init:(b "v0");
  Versioned_store.set st 1 (b "v6") ~tmp:(tmp 6);
  Versioned_store.set st 1 (b "v4") ~tmp:(tmp 4);
  Alcotest.(check string) "newest unaffected by late write" "v6"
    (bs (fst (Versioned_store.get st 1)));
  Alcotest.(check (option string)) "late version readable" (Some "v4")
    (before st 1 ~bound:(tmp 6));
  (* A third out-of-order write lands on the older slot (v4), not v6. *)
  Versioned_store.set st 1 (b "v5") ~tmp:(tmp 5);
  Alcotest.(check (option string)) "newer of the two survivors" (Some "v5")
    (before st 1 ~bound:(tmp 6));
  Alcotest.(check string) "newest still v6" "v6" (bs (fst (Versioned_store.get st 1)))

(* Any interleaving of writes — out-of-order timestamps, duplicate
   timestamps (idempotent re-execution) — leaves the store equal to the
   two-slot reference model on every read and bound, for both storage
   classes: a [Registered] or [Local] object from [register] (versions
   at zero) or one from [insert_local] (versions at the insertion
   stamp). *)
let store_interleaving_prop =
  QCheck.Test.make ~name:"adversarial write interleavings match the two-slot model"
    ~count:300
    QCheck.(
      triple
        (oneofl [ `Registered; `Local; `Inserted ])
        (Qc.int_range 0 10)
        (list_of_size Gen.(int_range 1 30) (pair (Qc.int_range 1 12) (int_bound 99))))
    (fun (origin, t0, writes) ->
      let _, st = make_store () in
      let t0 = if origin = `Inserted then tmp t0 else Tstamp.zero in
      (match origin with
      | `Registered ->
          Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:8
            ~init:(b "i")
      | `Local ->
          Versioned_store.register st 1 ~klass:Versioned_store.Local ~cap:0 ~init:(b "i")
      | `Inserted -> Versioned_store.insert_local st 1 (b "i") ~tmp:t0);
      let slot_a = ref (t0, "i") and slot_b = ref (t0, "i") in
      let model_set t v =
        if Tstamp.equal (fst !slot_a) t then slot_a := (t, v)
        else if Tstamp.equal (fst !slot_b) t then slot_b := (t, v)
        else if Tstamp.(fst !slot_a <= fst !slot_b) then slot_a := (t, v)
        else slot_b := (t, v)
      in
      (* Freshest model version admitted by [ok]; ties go to slot A. *)
      let model_read ok =
        match (ok (fst !slot_a), ok (fst !slot_b)) with
        | true, true ->
            Some (if Tstamp.(fst !slot_b <= fst !slot_a) then !slot_a else !slot_b)
        | true, false -> Some !slot_a
        | false, true -> Some !slot_b
        | false, false -> None
      in
      let same model got =
        match (model, got) with
        | Some (mt, mv), Some (v, t) -> Tstamp.equal mt t && mv = bs v
        | None, None -> true
        | _ -> false
      in
      (* Each write's value carries its index, so a value read back
         names the write, and with it the stamp. *)
      List.for_all
        (fun (i, (c, v)) ->
          let v = Printf.sprintf "%d:%d" i v in
          Versioned_store.set st 1 (Bytes.of_string v) ~tmp:(tmp c);
          model_set (tmp c) v;
          same (model_read (fun _ -> true)) (Some (Versioned_store.get st 1))
          && List.for_all
               (fun bc ->
                 let bound = tmp bc in
                 Option.map snd (model_read (fun t -> Tstamp.(t < bound)))
                 = before st 1 ~bound
                 && same
                      (model_read (fun t -> Tstamp.(t <= bound)))
                      (Versioned_store.get_at_most st 1 ~bound))
               [ 0; 1; 3; 6; 9; 12; 13 ])
        (List.mapi (fun i w -> (i, w)) writes))

let test_store_initial_value_copied_once () =
  (* A local object's two versions start from one copy of the initial
     value. The first write must leave the other version's bytes as
     they were, and neither version may alias the caller's buffer. *)
  let check_origin name setup ~t0 =
    let _, st = make_store () in
    let init = b "init" in
    setup st init;
    Bytes.fill init 0 (Bytes.length init) 'X';
    Alcotest.(check string) (name ^ ": caller's buffer not aliased") "init"
      (bs (fst (Versioned_store.get st 1)));
    Versioned_store.set st 1 (b "next") ~tmp:(tmp 20);
    Alcotest.(check string) (name ^ ": write lands") "next"
      (bs (fst (Versioned_store.get st 1)));
    match Versioned_store.get_at_most st 1 ~bound:t0 with
    | Some (v, t) ->
        Alcotest.(check string) (name ^ ": other version untouched") "init" (bs v);
        check_bool (name ^ ": other version's stamp") true (Tstamp.equal t t0)
    | None -> Alcotest.fail (name ^ ": initial version lost")
  in
  check_origin "register"
    (fun st init ->
      Versioned_store.register st 1 ~klass:Versioned_store.Local ~cap:0 ~init)
    ~t0:Tstamp.zero;
  check_origin "insert_local"
    (fun st init -> Versioned_store.insert_local st 1 init ~tmp:(tmp 5))
    ~t0:(tmp 5);
  check_origin "registered"
    (fun st init ->
      Versioned_store.register st 1 ~klass:Versioned_store.Registered ~cap:8 ~init)
    ~t0:Tstamp.zero

(* A [Local] object holding a 64-byte value: the inline two-version
   entry (5 words), one shared copy of the value (10 words) and the
   zero stamp (3 words). Re-boxing the versions or copying the value
   per version breaks this. *)
let local_object_words_max = 18

let test_store_local_footprint () =
  let _, st = make_store () in
  let words () = Obj.reachable_words (Obj.repr st) in
  let before = words () in
  Versioned_store.register st 1 ~klass:Versioned_store.Local ~cap:0
    ~init:(Bytes.make 64 'v');
  (* The hashtable's bucket cell for the new binding: 3 fields + header. *)
  let bucket_words = 4 in
  let words = words () - before - bucket_words in
  if words > local_object_words_max then
    Alcotest.failf "a 64-byte Local object takes %d words (max %d)" words
      local_object_words_max

(* {1 Update_log} *)

let test_log_range () =
  let log = Update_log.create ~capacity:100 in
  Update_log.append log (tmp 1) 10;
  Update_log.append log (tmp 2) 11;
  Update_log.append log (tmp 2) 12;
  Update_log.append log (tmp 3) 10;
  Alcotest.(check (list int)) "range [2,3]" [ 11; 12; 10 ]
    (Update_log.oids_in_range log ~from:(tmp 2) ~upto:(tmp 3));
  Alcotest.(check (list int)) "range [3,3]" [ 10 ]
    (Update_log.oids_in_range log ~from:(tmp 3) ~upto:(tmp 3));
  Alcotest.(check (list int)) "dedup" [ 10; 11; 12 ]
    (Update_log.oids_in_range log ~from:(tmp 1) ~upto:(tmp 3))

let test_log_truncation () =
  let log = Update_log.create ~capacity:3 in
  for i = 1 to 5 do
    Update_log.append log (tmp i) i
  done;
  check_int "bounded" 3 (Update_log.length log);
  check_bool "covers recent" true (Update_log.covers log ~from:(tmp 3));
  check_bool "does not cover dropped" false (Update_log.covers log ~from:(tmp 2));
  check_bool "range behind truncation rejected" true
    (try
       ignore (Update_log.oids_in_range log ~from:(tmp 1) ~upto:(tmp 5));
       false
     with Invalid_argument _ -> true)

let test_log_out_of_order () =
  (* Parallel execution appends slightly out of order; range queries
     and truncation soundness must survive it. *)
  let log = Update_log.create ~capacity:3 in
  Update_log.append log (tmp 5) 1;
  Update_log.append log (tmp 4) 2;
  Alcotest.(check (list int)) "both retained" [ 1; 2 ]
    (Update_log.oids_in_range log ~from:(tmp 4) ~upto:(tmp 5));
  Update_log.append log (tmp 6) 3;
  Update_log.append log (tmp 7) 4;
  (* Entry (tmp 5) was dropped: coverage from tmp 5 must be denied. *)
  check_bool "coverage sound after out-of-order drop" false
    (Update_log.covers log ~from:(tmp 5))

let test_log_note_gap_head () =
  (* Hole at the log head: a restarted replica adopts a snapshot whose
     prefix it never executed, so nothing at or below the adoption
     point may be served as a delta. *)
  let log = Update_log.create ~capacity:100 in
  Update_log.note_gap log ~upto:(tmp 5);
  check_bool "truncation at the gap" true
    (Tstamp.equal (Update_log.truncation log) (tmp 5));
  check_bool "does not cover the hole" false (Update_log.covers log ~from:(tmp 5));
  check_bool "covers above the hole" true (Update_log.covers log ~from:(tmp 6));
  Update_log.append log (tmp 6) 1;
  Update_log.append log (tmp 7) 2;
  Alcotest.(check (list int)) "range above the hole" [ 1; 2 ]
    (Update_log.oids_in_range log ~from:(tmp 6) ~upto:(tmp 7));
  check_bool "range into the hole rejected" true
    (try
       ignore (Update_log.oids_in_range log ~from:(tmp 5) ~upto:(tmp 7));
       false
     with Invalid_argument _ -> true)

let test_log_note_gap_monotone () =
  (* Back-to-back adopted transfers: the gap only moves forward. A
     second transfer adopting an older snapshot must not un-poison
     ranges behind the first gap. *)
  let log = Update_log.create ~capacity:10 in
  Update_log.append log (tmp 1) 1;
  Update_log.note_gap log ~upto:(tmp 6);
  Update_log.note_gap log ~upto:(tmp 4);
  check_bool "gap is monotone" true
    (Tstamp.equal (Update_log.truncation log) (tmp 6));
  Update_log.note_gap log ~upto:(tmp 9);
  check_bool "gap advances" true (Tstamp.equal (Update_log.truncation log) (tmp 9));
  check_bool "entry below the gap no longer served" false
    (Update_log.covers log ~from:(tmp 1))

let test_log_gap_spanning_truncation () =
  (* Hole spanning the overflow-truncation boundary: a gap behind the
     truncation point is absorbed by it; one ahead of it wins. *)
  let log = Update_log.create ~capacity:3 in
  for i = 1 to 5 do
    Update_log.append log (tmp i) i
  done;
  (* Overflow dropped entries 1 and 2. *)
  Update_log.note_gap log ~upto:(tmp 1);
  check_bool "gap behind truncation absorbed" true
    (Tstamp.equal (Update_log.truncation log) (tmp 2));
  Update_log.note_gap log ~upto:(tmp 4);
  check_bool "gap past truncation wins" true
    (Tstamp.equal (Update_log.truncation log) (tmp 4));
  check_bool "still covers the tail" true (Update_log.covers log ~from:(tmp 5));
  Alcotest.(check (list int)) "tail range still answered" [ 5 ]
    (Update_log.oids_in_range log ~from:(tmp 5) ~upto:(tmp 5))

let test_log_explicit_truncate () =
  (* Checkpoint-driven truncation (DESIGN.md §13): drop the prefix a
     checkpoint captured, and serve exactly the suffix above the cut. *)
  let log = Update_log.create ~capacity:100 in
  for i = 1 to 8 do
    Update_log.append log (tmp i) i
  done;
  check_int "prefix dropped" 5 (Update_log.truncate log ~upto:(tmp 5));
  check_int "suffix retained" 3 (Update_log.length log);
  check_bool "truncation at the cut" true
    (Tstamp.equal (Update_log.truncation log) (tmp 5));
  check_bool "covers above the cut" true (Update_log.covers log ~from:(tmp 6));
  check_bool "no longer covers the cut" false (Update_log.covers log ~from:(tmp 5));
  (* A cut exactly at the truncation point still serves its delta... *)
  Alcotest.(check (list int)) "delta from the cut" [ 6; 7; 8 ]
    (Update_log.oids_after log ~after:(tmp 5) ~upto:(tmp 8));
  (* ...but anything reaching strictly behind it is refused. *)
  check_bool "delta behind the cut refused" true
    (try
       ignore (Update_log.oids_after log ~after:(tmp 4) ~upto:(tmp 8));
       false
     with Invalid_argument _ -> true);
  (* Re-truncating at the same point is a no-op, and truncating past
     every retained entry still advances the point: the caller vouches
     a checkpoint captured those updates, so the log must refuse them
     from now on even though it dropped nothing extra. *)
  check_int "re-truncate drops nothing" 0 (Update_log.truncate log ~upto:(tmp 5));
  check_int "truncate past the tail" 3 (Update_log.truncate log ~upto:(tmp 9));
  check_bool "point advances past the tail" true
    (Tstamp.equal (Update_log.truncation log) (tmp 9));
  check_bool "future coverage intact" true (Update_log.covers log ~from:(tmp 10))

let test_log_truncate_note_gap_compose () =
  (* Checkpoint truncation and transfer-adoption gaps feed one monotone
     frontier: whichever is further ahead wins, and neither un-poisons
     ranges behind the other. This is the §13/§10 composition a
     checkpointing replica that also adopts transfers relies on. *)
  let log = Update_log.create ~capacity:100 in
  for i = 1 to 10 do
    Update_log.append log (tmp i) i
  done;
  ignore (Update_log.truncate log ~upto:(tmp 6));
  Update_log.note_gap log ~upto:(tmp 3);
  check_bool "stale gap absorbed by truncation" true
    (Tstamp.equal (Update_log.truncation log) (tmp 6));
  Update_log.note_gap log ~upto:(tmp 8);
  check_bool "gap past truncation wins" true
    (Tstamp.equal (Update_log.truncation log) (tmp 8));
  (* A checkpoint truncating behind the gap still drops its physical
     prefix, but cannot move the frontier backwards. *)
  check_int "truncate behind gap drops its prefix" 1
    (Update_log.truncate log ~upto:(tmp 7));
  check_bool "frontier stays at the gap" true
    (Tstamp.equal (Update_log.truncation log) (tmp 8));
  Alcotest.(check (list int)) "delta above the merged frontier" [ 9; 10 ]
    (Update_log.oids_after log ~after:(tmp 8) ~upto:(tmp 10))

(* Property: arbitrary interleavings of appends, checkpoint truncations
   and adoption gaps leave the log answering [oids_after] from its
   merged frontier exactly like a reference scan — truncation never
   loses a suffix entry and never serves a poisoned one. *)
let log_truncate_model_prop =
  QCheck.Test.make ~name:"truncate/note_gap interleavings match model" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple (Qc.int_range 0 2) (Qc.int_range 1 30) (int_bound 9)))
    (fun ops ->
      let log = Update_log.create ~capacity:1000 in
      let frontier = ref 0 in
      let entries = ref [] in
      List.iter
        (fun (op, t, oid) ->
          match op with
          | 0 ->
              Update_log.append log (tmp t) oid;
              entries := !entries @ [ (t, oid) ]
          | 1 ->
              ignore (Update_log.truncate log ~upto:(tmp t));
              frontier := max !frontier t
          | _ ->
              Update_log.note_gap log ~upto:(tmp t);
              frontier := max !frontier t)
        ops;
      let model =
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (t, oid) ->
            if t > !frontier && not (Hashtbl.mem seen oid) then begin
              Hashtbl.add seen oid ();
              Some oid
            end
            else None)
          !entries
      in
      Tstamp.equal (Update_log.truncation log) (tmp !frontier)
      && Update_log.oids_after log ~after:(tmp !frontier) ~upto:(tmp 30) = model)

(* Property: [oids_in_range] returns the distinct oids of the range in
   first-update order — exactly what a reference scan over the append
   sequence produces (duplicates coalesced onto their first update). *)
let log_range_model_prop =
  QCheck.Test.make ~name:"oids_in_range = first-update-order dedup (vs model)"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (pair (Qc.int_range 1 20) (int_bound 9)))
        (pair (Qc.int_range 1 20) (Qc.int_range 1 20)))
    (fun (entries, (a, b)) ->
      let from = min a b and upto = max a b in
      let log = Update_log.create ~capacity:1000 in
      List.iter (fun (t, oid) -> Update_log.append log (tmp t) oid) entries;
      let model =
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (t, oid) ->
            if t >= from && t <= upto && not (Hashtbl.mem seen oid) then begin
              Hashtbl.add seen oid ();
              Some oid
            end
            else None)
          entries
      in
      Update_log.oids_in_range log ~from:(tmp from) ~upto:(tmp upto) = model)

(* Property: a migration-shipped prefix composes with [note_gap] the
   way the replica uses it — the dst poisons the log up to the
   migration's cut (shipped cells stand in for every earlier update it
   never executed), then appends the migrated-in objects and later
   traffic above the cut. Ranges above the cut answer from the model;
   anything reaching the cut is refused, forcing donors to a full
   transfer. *)
let log_gap_migration_prop =
  QCheck.Test.make ~name:"note_gap composes with a migration-shipped prefix"
    ~count:300
    QCheck.(
      triple (Qc.int_range 1 15)
        (list_of_size Gen.(int_range 0 20) (pair (Qc.int_range 1 15) (int_bound 9)))
        (list_of_size Gen.(int_range 1 20) (pair (Qc.int_range 16 30) (int_bound 9))))
    (fun (cut, pre, post) ->
      let log = Update_log.create ~capacity:1000 in
      List.iter (fun (t, oid) -> Update_log.append log (tmp t) oid) pre;
      Update_log.note_gap log ~upto:(tmp cut);
      List.iter (fun (t, oid) -> Update_log.append log (tmp t) oid) post;
      let model =
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (t, oid) ->
            if t >= 16 && not (Hashtbl.mem seen oid) then begin
              Hashtbl.add seen oid ();
              Some oid
            end
            else None)
          (pre @ post)
      in
      Update_log.covers log ~from:(tmp 16)
      && (not (Update_log.covers log ~from:(tmp cut)))
      && Update_log.oids_in_range log ~from:(tmp 16) ~upto:(tmp 30) = model
      && try
           ignore (Update_log.oids_in_range log ~from:(tmp cut) ~upto:(tmp 30));
           false
         with Invalid_argument _ -> true)

(* A list-based reference update log: a plain queue with the documented
   semantics, which the packed ring must match observable for
   observable. *)
module Log_model = struct
  type t = {
    capacity : int;
    mutable entries : (Tstamp.t * int) list;  (* oldest first *)
    mutable trunc : Tstamp.t;
    mutable last : Tstamp.t;
  }

  let create ~capacity =
    { capacity; entries = []; trunc = Tstamp.zero; last = Tstamp.zero }

  let append m tmp oid =
    if Tstamp.(m.last < tmp) then m.last <- tmp;
    m.entries <- m.entries @ [ (tmp, oid) ];
    while List.length m.entries > m.capacity do
      match m.entries with
      | (t, _) :: rest ->
          if Tstamp.(m.trunc < t) then m.trunc <- t;
          m.entries <- rest
      | [] -> assert false
    done

  let note_gap m ~upto = if Tstamp.(m.trunc < upto) then m.trunc <- upto

  let truncate m ~upto =
    let kept = List.filter (fun (t, _) -> Tstamp.(upto < t)) m.entries in
    let dropped = List.length m.entries - List.length kept in
    m.entries <- kept;
    if Tstamp.(m.trunc < upto) then m.trunc <- upto;
    dropped

  let covers m ~from = Tstamp.(m.trunc < from)

  let distinct m keep =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (t, oid) ->
        if keep t && not (Hashtbl.mem seen oid) then begin
          Hashtbl.add seen oid ();
          Some oid
        end
        else None)
      m.entries

  let oids_in_range m ~from ~upto =
    if not (covers m ~from) then invalid_arg "oids_in_range";
    distinct m (fun t -> Tstamp.(from <= t && t <= upto))

  let oids_after m ~after ~upto =
    if Tstamp.(after < m.trunc) then invalid_arg "oids_after";
    distinct m (fun t -> Tstamp.(after < t && t <= upto))
end

type log_op =
  | Append of int * int * int  (* clock jitter, uid, oid *)
  | Truncate of int  (* cut, relative to the current clock *)
  | Gap of int

let pp_log_op = function
  | Append (j, u, o) -> Printf.sprintf "append(%+d.%d,%d)" j u o
  | Truncate d -> Printf.sprintf "truncate(%+d)" d
  | Gap d -> Printf.sprintf "gap(%+d)" d

(* What a model run reached, so a pinned sequence can show it covers
   the ring's hard cases. A cut "wraps" when the retained entries
   straddle the end of the ring: after [overflows] drops at full
   capacity the oldest entry sits at slot [overflows mod capacity]. *)
type log_run = {
  agreed : bool;
  overflows : int;
  non_prefix_cuts : int;  (* truncations that kept an entry older than one they dropped *)
  wrapped_non_prefix_cuts : int;
}

(* Run [ops] against the ring and the model side by side, comparing
   every observable after each step. Appends advance a clock by one and
   jitter around it, so they arrive slightly out of order and repeat
   timestamps; cuts land behind the clock, so truncation drops a
   non-prefix subset whenever appends were out of order. *)
let run_log_model ~capacity ops =
  let log = Update_log.create ~capacity and m = Log_model.create ~capacity in
  let clock = ref 1 and agreed = ref true and overflows = ref 0 in
  let non_prefix_cuts = ref 0 and wrapped_non_prefix_cuts = ref 0 in
  let stamp c u = Tstamp.make ~clock:(max 0 c) ~uid:u in
  let agree f g =
    let run h = match h () with v -> Some v | exception Invalid_argument _ -> None in
    run f = run g
  in
  List.iter
    (fun op ->
      (match op with
      | Append (j, u, oid) ->
          if List.length m.Log_model.entries = capacity then incr overflows;
          incr clock;
          Update_log.append log (stamp (!clock + j) u) oid;
          Log_model.append m (stamp (!clock + j) u) oid
      | Truncate d ->
          let upto = stamp (!clock - d) 0 in
          let before = m.Log_model.entries in
          let dropped = List.map (fun (t, _) -> Tstamp.(t <= upto)) before in
          let rec non_prefix = function
            | false :: rest -> List.mem true rest
            | true :: rest -> non_prefix rest
            | [] -> false
          in
          if non_prefix dropped then begin
            incr non_prefix_cuts;
            if (!overflows mod capacity) + List.length before > capacity then
              incr wrapped_non_prefix_cuts
          end;
          if Update_log.truncate log ~upto <> Log_model.truncate m ~upto then
            agreed := false
      | Gap d ->
          Update_log.note_gap log ~upto:(stamp (!clock - d) 0);
          Log_model.note_gap m ~upto:(stamp (!clock - d) 0));
      let probes = List.map (fun d -> stamp (!clock - d) 1) [ 0; 2; 5; 12; 40 ] in
      let queries =
        List.concat_map
          (fun from ->
            List.concat_map
              (fun upto ->
                [
                  agree
                    (fun () -> Update_log.oids_in_range log ~from ~upto)
                    (fun () -> Log_model.oids_in_range m ~from ~upto);
                  agree
                    (fun () -> Update_log.oids_after log ~after:from ~upto)
                    (fun () -> Log_model.oids_after m ~after:from ~upto);
                ])
              [ from; stamp (!clock + 5) 0 ])
          probes
      in
      if
        not
          (Update_log.length log = List.length m.Log_model.entries
          && Tstamp.equal (Update_log.last_tmp log) m.Log_model.last
          && Tstamp.equal (Update_log.truncation log) m.Log_model.trunc
          && List.for_all
               (fun from -> Update_log.covers log ~from = Log_model.covers m ~from)
               probes
          && List.for_all Fun.id queries)
      then agreed := false)
    ops;
  {
    agreed = !agreed;
    overflows = !overflows;
    non_prefix_cuts = !non_prefix_cuts;
    wrapped_non_prefix_cuts = !wrapped_non_prefix_cuts;
  }

let log_ring_model_prop =
  let gen =
    QCheck.Gen.(
      int_range 1 200 >>= fun capacity ->
      let op =
        frequency
          [
            (12, map3 (fun j u o -> Append (j, u, o)) (int_range (-3) 3) (int_bound 2)
                   (int_bound 30));
            (1, map (fun d -> Truncate d) (int_range (-2) 60));
            (1, map (fun d -> Gap d) (int_range 0 80));
          ]
      in
      list_size (int_range 0 (3 * capacity)) op >|= fun ops -> (capacity, ops))
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity (String.concat " " (List.map pp_log_op ops))
  in
  QCheck.Test.make ~name:"packed log = list-based queue model" ~count:200
    (QCheck.make ~print gen)
    (fun (capacity, ops) -> (run_log_model ~capacity ops).agreed)

let test_log_ring_wrap () =
  (* The shapes the ring has to get right, pinned: growth past the
     first 64 slots, wrap-around after overflow, a non-prefix truncation
     across the wrap point, and overflow again after it. [x; y] are an
     in-order entry followed by one stamped behind it; cutting between
     them keeps [x] and drops [y]. *)
  let appends n = List.init n (fun i -> Append (0, 0, i)) in
  let x_y_cut = [ Append (0, 0, 100); Append (-3, 0, 101); Truncate 2 ] in
  List.iter
    (fun capacity ->
      let ops =
        appends (capacity + 1) @ x_y_cut @ appends (capacity + 5) @ x_y_cut @ [ Gap 2 ]
        @ appends 7
      in
      let r = run_log_model ~capacity ops in
      let name what = Printf.sprintf "capacity %d: %s" capacity what in
      check_bool (name "agrees with the model") true r.agreed;
      (* The first [appends] and [x; y] overflow three times. *)
      check_bool (name "overflowed again after the wrapped cut") true (r.overflows > 3);
      (* One slot cannot hold an entry older than another. *)
      if capacity > 1 then begin
        check_int (name "non-prefix cuts") 2 r.non_prefix_cuts;
        check_bool (name "a non-prefix cut straddles the wrap") true
          (r.wrapped_non_prefix_cuts > 0)
      end)
    [ 1; 2; 3; 63; 64; 65; 100; 129; 200 ]

(* A full log costs three unboxed words per entry, plus a constant. *)
let test_log_footprint () =
  let n = 10_000 in
  let log = Update_log.create ~capacity:n in
  for i = 1 to n do
    Update_log.append log (tmp i) i
  done;
  check_int "filled to capacity" n (Update_log.length log);
  let words = Obj.reachable_words (Obj.repr log) in
  let per_entry = float_of_int words /. float_of_int n in
  if per_entry > 3.1 then
    Alcotest.failf "update log holds %.3f words per entry (max 3.1)" per_entry

(* {1 Coord_mem / Statesync_mem} *)

let test_coord_mem () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let node = Fabric.add_node fab ~name:"n" in
  let cm = Coord_mem.create node ~partitions:2 ~replicas:3 in
  Coord_mem.write_local cm ~part:1 ~idx:2 (tmp 5) ~stage:1;
  let t, s = Coord_mem.read_slot cm ~part:1 ~idx:2 in
  check_bool "slot tmp" true (Tstamp.equal t (tmp 5));
  check_int "slot stage" 1 s;
  check_bool "reached same stage" true
    (Coord_mem.reached cm ~part:1 ~idx:2 ~tmp:(tmp 5) ~stage:1);
  check_bool "not reached higher stage" false
    (Coord_mem.reached cm ~part:1 ~idx:2 ~tmp:(tmp 5) ~stage:2);
  check_bool "reached when moved past" true
    (Coord_mem.reached cm ~part:1 ~idx:2 ~tmp:(tmp 4) ~stage:2);
  check_bool "not reached for future" false
    (Coord_mem.reached cm ~part:1 ~idx:2 ~tmp:(tmp 6) ~stage:1);
  check_int "count" 1
    (Coord_mem.count_reached cm ~part:1 ~replicas:3 ~tmp:(tmp 5) ~stage:1);
  (* The wire encoding matches what write_local stores. *)
  let enc = Coord_mem.encode_slot (tmp 7) ~stage:2 in
  check_int "slot bytes" Coord_mem.slot_bytes (Bytes.length enc);
  check_i64 "encoded tmp" (Tstamp.to_int64 (tmp 7)) (Bytes.get_int64_le enc 0)

let test_statesync_mem () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let node = Fabric.add_node fab ~name:"n" in
  let sm = Statesync_mem.create node ~replicas:3 in
  Statesync_mem.write_local sm ~idx:1 (tmp 9) ~status:1;
  let t, s = Statesync_mem.read_slot sm ~idx:1 in
  check_bool "tmp" true (Tstamp.equal t (tmp 9));
  check_int "status" 1 s;
  let t0, s0 = Statesync_mem.read_slot sm ~idx:0 in
  check_bool "other slots idle" true (Tstamp.equal t0 Tstamp.zero && s0 = 0)

(* {1 End-to-end KV system} *)

type kv_world = {
  eng : Engine.t;
  sys : (Kv_app.req, Kv_app.resp) System.t;
}

let make_kv ?(seed = 1) ?(keys = 16) ?(partitions = 2) ?(replicas = 3) ?(init = 0L)
    ?(tweak = fun c -> c) () =
  let eng = Engine.create ~seed () in
  let cfg = tweak (Config.default ~partitions ~replicas) in
  let sys = System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init) in
  System.start sys;
  { eng; sys }

let on_client w name f =
  let node = System.new_client_node w.sys ~name in
  Fabric.spawn_on node (fun () -> f node)

(* A registry the test holds, for a deployment whose replica series it
   reads. *)
let own_metrics reg tweak c = tweak { c with Config.metrics = reg }

(* A counter of a registry snapshot, summed over the series whose labels
   include [labels]. Readers go through [find]: resolving a labelled
   replica series with [Metrics.counter] makes an unlabelled twin that
   reads 0. *)
let count_in ?(labels = []) snap name =
  match Heron_obs.Metrics.find snap ~labels name with
  | Some (Heron_obs.Metrics.Counter_v n) -> n
  | _ -> 0

let replica_labels ~part ~idx = [ ("part", string_of_int part); ("idx", string_of_int idx) ]

let value_resp = function
  | Kv_app.Value v -> v
  | r -> Alcotest.failf "expected Value, got %a" Kv_app.pp_resp r

(* All replicas of each partition hold the same registered state. *)
let assert_replicas_converged w =
  let reps = System.replicas w.sys in
  Array.iteri
    (fun p row ->
      let reference = Replica.store row.(0) in
      Array.iteri
        (fun i r ->
          if i > 0 then
            List.iter
              (fun oid ->
                let v0, t0 = Versioned_store.get reference oid in
                let vi, ti = Versioned_store.get (Replica.store r) oid in
                if not (Bytes.equal v0 vi && Tstamp.equal t0 ti) then
                  Alcotest.failf "partition %d replica %d diverged on oid %d" p i
                    (Oid.to_int oid))
              (Versioned_store.registered_oids reference))
        row)
    reps

let test_kv_single_partition () =
  let w = make_kv ~partitions:1 () in
  let got = ref [] in
  on_client w "c0" (fun node ->
      let put = System.submit w.sys ~from:node (Kv_app.Put (3, 42L)) in
      got := ("put", snd (List.hd put)) :: !got;
      let get = System.submit w.sys ~from:node (Kv_app.Get 3) in
      got := ("get", snd (List.hd get)) :: !got;
      let add = System.submit w.sys ~from:node (Kv_app.Add (3, 8L)) in
      got := ("add", snd (List.hd add)) :: !got);
  Engine.run_until w.eng (Time_ns.ms 10);
  check_int "three responses" 3 (List.length !got);
  check_i64 "get sees put" 42L (value_resp (List.assoc "get" !got));
  check_i64 "add returns new value" 50L (value_resp (List.assoc "add" !got));
  assert_replicas_converged w

let test_kv_multi_partition_transfer () =
  let w = make_kv ~partitions:2 ~init:100L () in
  let done_ = ref false in
  on_client w "c0" (fun node ->
      (* keys 0 and 1 live in different partitions *)
      ignore (System.submit w.sys ~from:node (Kv_app.Transfer { src = 0; dst = 1; amount = 30L }));
      let r = System.submit w.sys ~from:node (Kv_app.Read_all [ 0; 1 ]) in
      (* Both partitions execute and must return identical snapshots. *)
      check_int "replies from both partitions" 2 (List.length r);
      List.iter
        (fun (_, resp) ->
          match resp with
          | Kv_app.Values [ (0, a); (1, b) ] ->
              check_i64 "src debited" 70L a;
              check_i64 "dst credited" 130L b
          | other -> Alcotest.failf "unexpected %a" Kv_app.pp_resp other)
        r;
      done_ := true);
  Engine.run_until w.eng (Time_ns.ms 10);
  check_bool "client finished" true !done_;
  assert_replicas_converged w

(* The Figure 3 invariant: keys incremented together read equal. *)
let run_fig3_workload ~seed ~ops =
  let w = make_kv ~seed ~keys:4 ~partitions:2 ~init:0L () in
  let violations = ref 0 in
  let reads = ref 0 in
  (* Two writers hammer Incr_all on {0,1} (partitions 0 and 1); two
     readers check Read_all snapshots. *)
  for c = 0 to 1 do
    on_client w (Printf.sprintf "w%d" c) (fun node ->
        for _ = 1 to ops do
          ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
        done)
  done;
  for c = 0 to 1 do
    on_client w (Printf.sprintf "r%d" c) (fun node ->
        for _ = 1 to ops do
          let resp = System.submit w.sys ~from:node (Kv_app.Read_all [ 0; 1 ]) in
          List.iter
            (fun (_, r) ->
              match r with
              | Kv_app.Values [ (0, a); (1, b) ] ->
                  incr reads;
                  if not (Int64.equal a b) then incr violations
              | _ -> incr violations)
            resp
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 2);
  (w, !violations, !reads)

let test_kv_fig3_invariant () =
  let w, violations, reads = run_fig3_workload ~seed:3 ~ops:30 in
  check_bool "snapshots observed" true (reads > 0);
  check_int "no torn snapshots" 0 violations;
  assert_replicas_converged w;
  (* Both partitions ended with the same count: 2 writers x 30 ops. *)
  let st = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  check_i64 "final count" 60L (Bytes.get_int64_le (fst (Versioned_store.get st 0)) 0)

let fig3_invariant_prop =
  QCheck.Test.make ~name:"fig3 snapshot invariant across seeds" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let _, violations, reads = run_fig3_workload ~seed ~ops:10 in
      reads > 0 && violations = 0)

let test_kv_conservation () =
  (* Random transfers conserve the total across 3 partitions. *)
  let w = make_kv ~seed:11 ~keys:9 ~partitions:3 ~init:1000L () in
  let rng = Random.State.make [| 5 |] in
  for c = 0 to 3 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to 25 do
          let src = Random.State.int rng 9 and dst = Random.State.int rng 9 in
          if src <> dst then
            ignore
              (System.submit w.sys ~from:node
                 (Kv_app.Transfer { src; dst; amount = Int64.of_int (Random.State.int rng 50) }))
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 2);
  assert_replicas_converged w;
  let total = ref 0L in
  for k = 0 to 8 do
    let p = Kv_app.partition_of_key ~partitions:3 k in
    let st = Replica.store (System.replica w.sys ~part:p ~idx:0) in
    total := Int64.add !total (Bytes.get_int64_le (fst (Versioned_store.get st (Kv_app.oid_of_key k))) 0)
  done;
  check_i64 "money conserved" 9000L !total

let test_kv_determinism () =
  let final_state seed =
    let w, _, _ = run_fig3_workload ~seed ~ops:10 in
    let st = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
    List.map
      (fun oid -> (oid, bs (fst (Versioned_store.get st oid))))
      (Versioned_store.registered_oids st)
  in
  check_bool "same seed same state" true (final_state 21 = final_state 21)

let test_kv_lagger_state_transfer () =
  (* Make replica 2 of partition 0 much slower than its peers, under
     majority-only coordination: it falls behind, its remote reads find
     only too-new versions, and it must recover via state transfer. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:7 ~keys:4 ~partitions:2 ~init:0L
      ~tweak:(own_metrics reg (fun c -> { c with Config.wait_phase4 = Config.Majority }))
      ()
  in
  let slow = System.replica w.sys ~part:0 ~idx:2 in
  Replica.inject_exec_delay slow (Time_ns.us 400);
  for c = 0 to 2 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to 40 do
          ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 2);
  let snap = Heron_obs.Metrics.snapshot reg in
  let slow_count = count_in snap ~labels:(replica_labels ~part:0 ~idx:2) in
  check_bool "slow replica lagged" true (slow_count "coord.lagger_detections" > 0);
  check_bool "slow replica skipped deliveries" true
    (slow_count "replica.skipped_deliveries" > 0);
  let donors =
    List.filter
      (fun i ->
        count_in snap ~labels:(replica_labels ~part:0 ~idx:i) "coord.state_transfers" > 0)
      [ 0; 1 ]
  in
  check_bool "some peer served a transfer" true (donors <> []);
  (* Despite lagging, the partition converged. *)
  Replica.inject_exec_delay slow 0;
  Engine.run_until w.eng (Time_ns.s 3);
  let reference = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  let slow_store = Replica.store slow in
  List.iter
    (fun oid ->
      let v0, _ = Versioned_store.get reference oid in
      let v2, _ = Versioned_store.get slow_store oid in
      if not (Bytes.equal v0 v2) then
        Alcotest.failf "lagger diverged on oid %d" (Oid.to_int oid))
    (Versioned_store.registered_oids reference)

let test_kv_forced_state_transfer () =
  (* Directly exercise Algorithm 3: run some updates, then ask a
     replica to synchronise from a timestamp it already has — the
     donor answers with a (possibly empty) delta and status returns
     to 0. *)
  let w = make_kv ~partitions:1 ~keys:2 () in
  let finished = ref false in
  on_client w "c0" (fun node ->
      for i = 1 to 5 do
        ignore (System.submit w.sys ~from:node (Kv_app.Put (0, Int64.of_int i)))
      done;
      let r2 = System.replica w.sys ~part:0 ~idx:2 in
      let target = Replica.last_req (System.replica w.sys ~part:0 ~idx:0) in
      Replica.force_state_transfer r2 ~failed_tmp:target;
      check_bool "last_req advanced" true Tstamp.(target <= Replica.last_req r2);
      finished := true);
  Engine.run_until w.eng (Time_ns.s 1);
  check_bool "transfer completed" true !finished

let test_kv_back_to_back_adopted_transfers () =
  (* Two adopted transfers in a row on a genuinely lagging replica: the
     first adoption leaves a hole in its update log (it never executed
     the shipped prefix), the second must cope with that hole — the
     donor falls back to a full transfer rather than shipping a delta
     across it — and the gap point only moves forward. *)
  let w =
    make_kv ~seed:9 ~keys:4 ~partitions:1 ~init:0L
      ~tweak:(fun c -> { c with Config.wait_phase4 = Config.Majority })
      ()
  in
  let r2 = System.replica w.sys ~part:0 ~idx:2 in
  Replica.inject_exec_delay r2 (Time_ns.us 400);
  let finished = ref false in
  on_client w "c0" (fun node ->
      for i = 1 to 30 do
        ignore (System.submit w.sys ~from:node (Kv_app.Add (i mod 4, 1L)))
      done;
      let t1 = Replica.last_req (System.replica w.sys ~part:0 ~idx:0) in
      Replica.force_state_transfer r2 ~failed_tmp:t1;
      let g1 = Update_log.truncation (Replica.update_log r2) in
      check_bool "first adoption leaves a log hole" false (Tstamp.equal g1 Tstamp.zero);
      check_bool "hole reaches the adoption point" true Tstamp.(t1 <= g1);
      for i = 1 to 30 do
        ignore (System.submit w.sys ~from:node (Kv_app.Add (i mod 4, 1L)))
      done;
      let t2 = Replica.last_req (System.replica w.sys ~part:0 ~idx:0) in
      Replica.force_state_transfer r2 ~failed_tmp:t2;
      let g2 = Update_log.truncation (Replica.update_log r2) in
      check_bool "gap only moves forward" true Tstamp.(g1 <= g2);
      check_bool "caught up to the second adoption" true
        Tstamp.(t2 <= Replica.last_req r2);
      finished := true);
  Engine.run_until w.eng (Time_ns.s 2);
  check_bool "both transfers completed" true !finished;
  Replica.inject_exec_delay r2 0;
  Engine.run_until w.eng (Time_ns.s 3);
  assert_replicas_converged w;
  Array.iter
    (fun row ->
      Array.iter
        (fun r ->
          match Replica.check_invariants r with
          | Ok () -> ()
          | Error m -> Alcotest.failf "invariant breach: %s" m)
        row)
    (System.replicas w.sys)

let test_kv_replica_crash_tolerated () =
  (* With one replica of each partition dead, requests still complete
     (majority coordination + multicast quorums). *)
  let w = make_kv ~seed:13 ~keys:4 ~partitions:2 ~init:5L () in
  Fabric.crash (Replica.node (System.replica w.sys ~part:0 ~idx:2));
  Fabric.crash (Replica.node (System.replica w.sys ~part:1 ~idx:1));
  let ok = ref 0 in
  on_client w "c0" (fun node ->
      for _ = 1 to 10 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
        incr ok
      done;
      let r = System.submit w.sys ~from:node (Kv_app.Read_all [ 0; 1 ]) in
      List.iter
        (fun (_, resp) ->
          match resp with
          | Kv_app.Values [ (0, a); (1, b) ] ->
              check_i64 "a" 15L a;
              check_i64 "b" 15L b
          | other -> Alcotest.failf "unexpected %a" Kv_app.pp_resp other)
        r);
  Engine.run_until w.eng (Time_ns.s 2);
  check_int "all requests completed" 10 !ok

let test_kv_read_outside_read_set_rejected () =
  (* An app bug (read not declared) is caught, not silently wrong. *)
  let app = Kv_app.app ~keys:2 ~partitions:1 ~init:0L in
  let broken =
    {
      app with
      App.read_set = (fun _ -> []);
      execute = (fun ctx _ -> Kv_app.Value (Bytes.get_int64_le (ctx.App.ctx_read (Oid.of_int 0)) 0));
    }
  in
  let eng = Engine.create () in
  let cfg = Config.default ~partitions:1 ~replicas:1 in
  let sys = System.create eng ~cfg ~app:broken in
  System.start sys;
  let node = System.new_client_node sys ~name:"c" in
  Fabric.spawn_on node (fun () -> ignore (System.submit sys ~from:node (Kv_app.Get 0)));
  check_bool "invalid read rejected" true
    (try
       Engine.run_until eng (Time_ns.ms 10);
       false
     with Invalid_argument _ -> true)

(* {2 Execution charges}

   Reads, writes and application charges accrue as a debt that one
   consume pays before the next step another fiber can observe. A
   one-replica partition, without hiccups, runs two requests of an app
   whose reads are all on demand: [`Write] charges 300 + 500 ns, reads
   a registered 8-byte cell, charges 200 ns and rewrites the cell;
   [`Lag] charges 400 + 600 ns and then reads a local object whose two
   versions are both newer than any request, so the replica lags. *)
let debt_reg = Oid.of_int 0
let debt_poisoned = Oid.of_int 1

let debt_app ~on_start =
  {
    App.app_name = "debt";
    placement_of = (fun _ -> App.Partition 0);
    klass_of =
      (fun oid ->
        if oid = debt_reg then Versioned_store.Registered else Versioned_store.Local);
    read_set = (fun _ -> []);
    read_plan = (fun ~part:_ _ -> []);
    write_sketch = (fun _ -> [ debt_reg ]);
    req_size = (fun _ -> 16);
    resp_size = (fun () -> 8);
    execute =
      (fun ctx req ->
        on_start (Engine.self_now ());
        match req with
        | `Write ->
            ctx.App.ctx_charge 300;
            ctx.App.ctx_charge 500;
            let v = ctx.App.ctx_read debt_reg in
            ctx.App.ctx_charge 200;
            ctx.App.ctx_write debt_reg (Bytes.map Char.uppercase_ascii v)
        | `Lag ->
            ctx.App.ctx_charge 400;
            ctx.App.ctx_charge 600;
            ignore (ctx.App.ctx_read debt_poisoned));
    serial_hint = (fun _ -> false);
    read_only = (fun _ -> false);
    catalog =
      (fun () ->
        [
          {
            App.spec_oid = debt_reg;
            spec_placement = App.Partition 0;
            spec_klass = Versioned_store.Registered;
            spec_cap = 16;
            spec_init = b "oldvalue";
          };
          {
            App.spec_oid = debt_poisoned;
            spec_placement = App.Partition 0;
            spec_klass = Versioned_store.Local;
            spec_cap = 0;
            spec_init = b "poisoned";
          };
        ]);
  }

(* The spans replica [part]/[idx] recorded, tree and after-reply, in
   start order. *)
module Reqtrace = Heron_obs.Reqtrace

let replica_spans col ~part ~idx =
  Heron_obs.Trace_export.replica_lanes (Reqtrace.export_trees col)
  |> List.assoc_opt (part, idx)
  |> Option.value ~default:[]
  |> List.stable_sort (fun a b -> compare a.Reqtrace.rs_start b.Reqtrace.rs_start)

let debt_cfg =
  let cfg = Config.default ~partitions:1 ~replicas:1 in
  { cfg with Config.costs = { cfg.Config.costs with Config.hiccup_pct = 0 } }

(* Run [req] once; return the replica, the instant the app callback
   started and the spans the replica recorded. [probes] are [(delay from the
   callback's start, check)] pairs, run as events at those instants. *)
let run_debt_app req ~probes =
  let eng = Engine.create () in
  let col = Reqtrace.create () in
  let cfg = { debt_cfg with Config.reqtrace = Some col } in
  let started = ref None in
  let sys = ref None in
  let on_start at =
    started := Some at;
    let r = System.replica (Option.get !sys) ~part:0 ~idx:0 in
    List.iter (fun (d, check) -> Engine.schedule ~delay:d eng (fun () -> check r)) probes
  in
  let s = System.create eng ~cfg ~app:(debt_app ~on_start) in
  sys := Some s;
  let r = System.replica s ~part:0 ~idx:0 in
  let st = Replica.store r in
  Versioned_store.set st debt_poisoned (b "future-a") ~tmp:(Tstamp.make ~clock:1_000_000 ~uid:1);
  Versioned_store.set st debt_poisoned (b "future-b") ~tmp:(Tstamp.make ~clock:1_000_000 ~uid:2);
  System.start s;
  let node = System.new_client_node s ~name:"c" in
  Fabric.spawn_on node (fun () -> ignore (System.submit s ~from:node req));
  Engine.run_until eng (Time_ns.ms 2);
  (r, Option.get !started, replica_spans col ~part:0 ~idx:0)

let test_execution_debt () =
  (* The cell as a one-sided read completing now returns it. *)
  let newest r =
    let st = Replica.store r in
    let raw =
      Fabric.local_read (Replica.node r)
        (Versioned_store.cell_addr st debt_reg)
        ~len:(Versioned_store.cell_len st debt_reg)
    in
    let (va, ta), (vb, tb) = Versioned_store.decode_cell raw in
    bs (if Tstamp.(tb <= ta) then va else vb)
  in
  let seen = ref [] in
  let probe name r = seen := (name, newest r) :: !seen in
  (* The write lands once every charge before it is paid, as if each had
     been consumed on its own: 300 + 500 + 200 ns of compute plus the
     cell's deserialization and serialization. *)
  let costs = debt_cfg.Config.costs in
  let due =
    1_000 + (8 * costs.Config.deser_per_byte_x100 / 100)
    + (8 * costs.Config.ser_per_byte_x100 / 100)
  in
  let r, started, spans =
    run_debt_app `Write
      ~probes:[ (due - 1, probe "before"); (due + 1, probe "after") ]
  in
  Alcotest.(check (list (pair string string)))
    "peer reads around the write" [ ("before", "oldvalue"); ("after", "OLDVALUE") ]
    (List.rev !seen);
  check_str "store holds the write" "OLDVALUE" (newest r);
  (match List.filter (fun s -> s.Reqtrace.rs_stage = "execute") spans with
  | [ s ] ->
      check_int "execution ends at the write" (started + due) s.Reqtrace.rs_end;
      check_int "execution lasts base cost plus every charge"
        (costs.Config.exec_base_ns + due)
        (s.Reqtrace.rs_end - s.Reqtrace.rs_start)
  | spans -> Alcotest.failf "expected one execute span, got %d" (List.length spans));
  (* [`Lag] raises Lagging after 400 + 600 ns of charges: the replica
     enters recovery only once they are paid. *)
  let recovering = ref [] in
  let probe name r = recovering := (name, Replica.in_recovery r) :: !recovering in
  let _ =
    run_debt_app `Lag ~probes:[ (999, probe "before"); (1_001, probe "after") ]
  in
  Alcotest.(check (list (pair string bool)))
    "lagging pays its charges first"
    [ ("before", false); ("after", true) ]
    (List.rev !recovering)

let test_kv_trace_spans () =
  let col = Reqtrace.create () in
  let w = make_kv ~partitions:2 ~tweak:(fun c -> { c with Config.reqtrace = Some col }) () in
  on_client w "c0" (fun node ->
      ignore (System.submit w.sys ~from:node (Kv_app.Put (0, 1L)));
      ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ])));
  Engine.run_until w.eng (Time_ns.ms 20);
  let names = List.map (fun s -> s.Reqtrace.rs_stage) (replica_spans col ~part:0 ~idx:0) in
  Alcotest.(check (list string))
    "request timelines recorded"
    [ "ordering"; "execute"; "ordering"; "phase2"; "execute"; "phase4" ]
    names;
  check_bool "trees render" true
    (List.for_all
       (fun tree -> String.length (Reqtrace.render_tree tree) > 0)
       (Reqtrace.export_trees col))

let test_kv_stats_recorded () =
  let reg = Heron_obs.Metrics.create () in
  let w = make_kv ~partitions:2 ~tweak:(own_metrics reg Fun.id) () in
  on_client w "c0" (fun node ->
      ignore (System.submit w.sys ~from:node (Kv_app.Put (0, 1L)));
      ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ])));
  Engine.run_until w.eng (Time_ns.ms 20);
  let snap = Heron_obs.Metrics.snapshot reg in
  let p0r0 = replica_labels ~part:0 ~idx:0 in
  let hist name =
    match Heron_obs.Metrics.find snap ~labels:p0r0 name with
    | Some (Heron_obs.Metrics.Histogram_v h) -> h
    | _ -> Alcotest.failf "p0/r0 records no %s" name
  in
  check_int "executed" 2 (count_in snap ~labels:p0r0 "replica.executed");
  check_int "one multi-partition" 1 (hist "coord.phase4_wait_ns").Heron_obs.Metrics.hs_count;
  check_int "coord samples" 1 (hist "coord.phase2_wait_ns").Heron_obs.Metrics.hs_count;
  check_bool "ordering latency positive" true
    ((hist "replica.ordering_ns").Heron_obs.Metrics.hs_min > 0);
  (* Every replica records under its own labels; the unfiltered read is
     the deployment's sum. *)
  let per_replica =
    List.fold_left
      (fun acc (part, idx) ->
        acc + count_in snap ~labels:(replica_labels ~part ~idx) "replica.executed")
      0
      [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ]
  in
  check_int "deployment sum" per_replica (count_in snap "replica.executed");
  check_int "two requests at six replicas, one at three" 9 per_replica

let test_kv_crash_restart_rejoin () =
  (* The paper's worst case (Section V-E): a replica crashes, loses its
     memory, restarts, transfers the complete state from a peer, and
     resumes executing. *)
  let reg = Heron_obs.Metrics.create () in
  let w = make_kv ~seed:23 ~keys:6 ~partitions:2 ~init:10L ~tweak:(own_metrics reg Fun.id) () in
  let victim_node = Replica.node (System.replica w.sys ~part:0 ~idx:2) in
  let phase = ref `Before in
  let after_ops = ref 0 in
  let at_restart = ref [] in
  on_client w "driver" (fun node ->
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done;
      Fabric.crash victim_node;
      phase := `Crashed;
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done;
      System.restart_replica w.sys ~part:0 ~idx:2;
      at_restart := Heron_obs.Metrics.snapshot reg;
      phase := `Restarted;
      Engine.sleep (Time_ns.ms 5);
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
        incr after_ops
      done);
  Engine.run_until w.eng (Time_ns.s 5);
  check_bool "made it through all phases" true (!phase = `Restarted);
  check_int "post-restart requests completed" 15 !after_ops;
  (* The restarted replica converged with the majority... *)
  let fresh = System.replica w.sys ~part:0 ~idx:2 in
  let reference = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  List.iter
    (fun oid ->
      let v0, _ = Versioned_store.get reference oid in
      let v2, _ = Versioned_store.get (Replica.store fresh) oid in
      if not (Bytes.equal v0 v2) then
        Alcotest.failf "restarted replica diverged on oid %d" (Oid.to_int oid))
    (Versioned_store.registered_oids reference);
  (* ... and actually executed requests after rejoining: the slot's
     series spans incarnations, so read its diff from the restart. *)
  let since_restart =
    Heron_obs.Metrics.diff ~before:!at_restart ~after:(Heron_obs.Metrics.snapshot reg)
  in
  check_bool "fresh replica executed post-restart traffic" true
    (count_in since_restart ~labels:(replica_labels ~part:0 ~idx:2) "replica.executed" > 0);
  check_i64 "state reflects all 45 increments" 55L
    (Bytes.get_int64_le (fst (Versioned_store.get (Replica.store fresh) (Kv_app.oid_of_key 0))) 0)

let test_kv_restart_continues_series () =
  (* A restarted replica resolves its slot's series again: the counts
     carry on from the crashed incarnation, and a diff from a snapshot
     taken at the restart isolates the new one. *)
  let reg = Heron_obs.Metrics.create () in
  let w = make_kv ~seed:5 ~keys:4 ~partitions:2 ~tweak:(own_metrics reg Fun.id) () in
  let slot = replica_labels ~part:0 ~idx:2 in
  let executed snap = count_in snap ~labels:slot "replica.executed" in
  let at_crash = ref [] and at_restart = ref [] in
  let incr_all node n =
    for _ = 1 to n do
      ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
    done
  in
  on_client w "driver" (fun node ->
      incr_all node 10;
      Engine.sleep (Time_ns.ms 5);
      at_crash := Heron_obs.Metrics.snapshot reg;
      Fabric.crash (Replica.node (System.replica w.sys ~part:0 ~idx:2));
      incr_all node 5;
      System.restart_replica w.sys ~part:0 ~idx:2;
      at_restart := Heron_obs.Metrics.snapshot reg;
      Engine.sleep (Time_ns.ms 5);
      incr_all node 5);
  Engine.run_until w.eng (Time_ns.s 2);
  let final = Heron_obs.Metrics.snapshot reg in
  check_int "the first incarnation executed everything" 10 (executed !at_crash);
  check_int "a restart does not reset the slot" 10 (executed !at_restart);
  check_int "one series per slot" 1
    (List.length
       (List.filter
          (fun e -> e.Heron_obs.Metrics.e_name = "replica.executed"
            && e.e_labels = List.sort compare slot)
          final));
  let fresh = executed (Heron_obs.Metrics.diff ~before:!at_restart ~after:final) in
  check_bool "the diff counts the new incarnation's executions" true (fresh > 0 && fresh <= 5);
  check_int "the series continues" (10 + fresh) (executed final)

let test_kv_leader_crash_tolerated () =
  (* Crash the replica that is also its partition's multicast leader:
     leadership moves to a follower, deliveries resume, and requests
     keep completing. *)
  let w = make_kv ~seed:41 ~keys:4 ~partitions:2 ~init:0L () in
  let ok = ref 0 in
  on_client w "c0" (fun node ->
      for _ = 1 to 5 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done;
      Fabric.crash (Replica.node (System.replica w.sys ~part:0 ~idx:0));
      (* Give failure detection a moment, then keep going. *)
      Engine.sleep (Time_ns.ms 2);
      for _ = 1 to 10 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
        incr ok
      done);
  Engine.run_until w.eng (Time_ns.s 5);
  check_int "requests completed after leader crash" 10 !ok;
  check_int "leadership moved" 1
    (Heron_multicast.Ramcast.leader_idx (System.multicast w.sys) ~gid:0);
  (* Surviving replicas agree. *)
  let s1 = Replica.store (System.replica w.sys ~part:0 ~idx:1) in
  let s2 = Replica.store (System.replica w.sys ~part:0 ~idx:2) in
  List.iter
    (fun oid ->
      if not (Bytes.equal (fst (Versioned_store.get s1 oid)) (fst (Versioned_store.get s2 oid)))
      then Alcotest.failf "survivors diverged on %d" (Oid.to_int oid))
    (Versioned_store.registered_oids s1);
  (* The ex-leader can rejoin as a follower and catch up. *)
  System.restart_replica w.sys ~part:0 ~idx:0;
  on_client w "c1" (fun node ->
      for _ = 1 to 5 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done);
  Engine.run_until w.eng (Time_ns.s 10);
  let fresh = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  List.iter
    (fun oid ->
      if not (Bytes.equal (fst (Versioned_store.get fresh oid)) (fst (Versioned_store.get s1 oid)))
      then Alcotest.failf "rejoined ex-leader diverged on %d" (Oid.to_int oid))
    (Versioned_store.registered_oids s1)

(* Random crash/restart schedules against continuous traffic: the
   system keeps serving, and live replicas converge. One follower per
   partition may be down at any time (f = 1). *)
let run_chaos_schedule ?(durability = false) seed =
      let tweak c =
        if durability then
          { c with
            Config.durability =
              { Config.dur_enabled = true; dur_interval_ns = 500_000 };
            metrics = Heron_obs.Metrics.create () }
        else c
      in
      let w = make_kv ~seed ~keys:4 ~partitions:2 ~init:0L ~tweak () in
      let completed = ref 0 in
      for c = 0 to 2 do
        on_client w (Printf.sprintf "c%d" c) (fun node ->
            for _ = 1 to 40 do
              ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
              incr completed
            done)
      done;
      (* Chaos fiber: repeatedly crash and later restart follower 2 of
         alternating partitions. *)
      let chaos = Fabric.add_node (System.fabric w.sys) ~name:"chaos" in
      let rng = Random.State.make [| seed; 0xC0A05 |] in
      Fabric.spawn_on chaos (fun () ->
          for round = 0 to 3 do
            Engine.sleep (Time_ns.us (200 + Random.State.int rng 800));
            let part = round mod 2 in
            let victim = System.replica w.sys ~part ~idx:2 in
            Fabric.crash (Replica.node victim);
            Engine.sleep (Time_ns.us (300 + Random.State.int rng 900));
            System.restart_replica w.sys ~part ~idx:2
          done);
      Engine.run_until w.eng (Time_ns.s 20);
      if !completed <> 120 then failwith "traffic stalled under chaos";
      (* All live replicas of each partition agree. *)
      Array.iteri
        (fun p row ->
          let live = Array.to_list row
            |> List.filter (fun r -> Fabric.is_alive (Replica.node r)) in
          match live with
          | [] -> failwith "no live replicas"
          | first :: rest ->
              let ref_store = Replica.store first in
              List.iter
                (fun r ->
                  List.iter
                    (fun oid ->
                      if not (Bytes.equal
                                (fst (Versioned_store.get ref_store oid))
                                (fst (Versioned_store.get (Replica.store r) oid)))
                      then failwith (Printf.sprintf "partition %d diverged" p))
                    (Versioned_store.registered_oids ref_store))
                rest)
        (System.replicas w.sys);
      true

(* This property was once flaky: qcheck draws fresh inputs every run,
   and a handful of inputs in [0, 10000] diverged (the seed-3206 rejoin
   gap, pinned below). The input domain has since been swept
   exhaustively — every input in [0, 10000] converges (and [0, 400]
   with checkpointing on) — so any new failure here is a real
   regression, not an unlucky draw. *)
let chaos_crash_restart_prop =
  QCheck.Test.make ~name:"chaos: random follower crash/restart schedules" ~count:5
    QCheck.(int_bound 10_000)
    run_chaos_schedule

let chaos_crash_restart_durability_prop =
  QCheck.Test.make
    ~name:"chaos: crash/restart schedules with checkpointing on" ~count:5
    QCheck.(int_bound 10_000)
    (run_chaos_schedule ~durability:true)

let test_chaos_regression_rejoin_gap () =
  (* Pinned schedule (qcheck seed 3206). This input once diverged: a
     restarted follower asked for recovery from its own last-applied
     tmp, but entries already dispatched to the leader's log before the
     rejoin — and applied by the donor only after the snapshot — were
     covered by neither the transfer nor redelivery, leaving a permanent
     hole that delta transfers then propagated. The fix requests
     recovery from the leader's dispatch horizon and marks adopted
     transfers as log gaps. *)
  check_bool "seed 3206 converges" true (run_chaos_schedule 3206)

(* {1 Parallel execution (Section III-D.1 extension)} *)

(* The pipeline on with [n] executor fibers per replica. *)
let executors n =
  { Config.default_pipeline with Config.pipe_enabled = true; pipe_executors = n }

let test_parallel_correctness () =
  (* 4 executors: disjoint-key updates run concurrently, transfers act
     as multi-partition barriers; conservation and convergence must
     hold exactly as in sequential mode. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:17 ~keys:8 ~partitions:2 ~init:100L
      ~tweak:(own_metrics reg (fun c -> { c with Config.pipeline = executors 4 }))
      ()
  in
  let rng = Random.State.make [| 3 |] in
  for c = 0 to 3 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to 30 do
          match Random.State.int rng 3 with
          | 0 ->
              let k = Random.State.int rng 8 in
              ignore (System.submit w.sys ~from:node (Kv_app.Add (k, 1L)))
          | 1 ->
              let src = Random.State.int rng 8 in
              let dst = (src + 3) mod 8 in
              ignore
                (System.submit w.sys ~from:node
                   (Kv_app.Transfer { src; dst; amount = 5L }))
          | _ -> ignore (System.submit w.sys ~from:node (Kv_app.Read_all [ 0; 1; 2 ]))
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 3);
  assert_replicas_converged w;
  (* Adds create money; transfers conserve: recompute expected total
     from the adds executed. *)
  let total = ref 0L in
  for k = 0 to 7 do
    let p = Kv_app.partition_of_key ~partitions:2 k in
    let st = Replica.store (System.replica w.sys ~part:p ~idx:0) in
    total :=
      Int64.add !total (Bytes.get_int64_le (fst (Versioned_store.get st (Kv_app.oid_of_key k))) 0)
  done;
  (* 8 keys x 100 initial; adds add 1 each; transfers move 5. The exact
     number of adds is workload-dependent, but the total must be
     800 + (#adds): recompute by draining stats. *)
  let executed =
    count_in (Heron_obs.Metrics.snapshot reg) ~labels:[ ("idx", "0") ] "replica.executed"
  in
  check_bool "requests executed" true (executed > 0);
  check_bool "total is initial plus adds" true
    (Int64.to_int !total >= 800 && Int64.to_int !total <= 800 + 120)

let test_parallel_speedup () =
  (* Disjoint-key writes from many clients: 4 executors should clearly
     outrun 1 (execution dominates single-partition latency). *)
  let run n =
    let w =
      make_kv ~seed:5 ~keys:16 ~partitions:1 ~init:0L
        ~tweak:(fun c ->
          {
            c with
            Config.pipeline = executors n;
            costs = { c.Config.costs with Config.exec_base_ns = 30_000 };
          })
        ()
    in
    let completed = ref 0 in
    for c = 0 to 7 do
      on_client w (Printf.sprintf "c%d" c) (fun node ->
          let rec loop () =
            ignore (System.submit w.sys ~from:node (Kv_app.Put (c * 2, 1L)));
            incr completed;
            loop ()
          in
          loop ())
    done;
    Engine.run_until w.eng (Time_ns.ms 50);
    !completed
  in
  let seq = run 1 and par = run 4 in
  check_bool
    (Printf.sprintf "parallel beats sequential (%d vs %d)" par seq)
    true
    (float_of_int par > 1.5 *. float_of_int seq)

let test_parallel_conflicts_serialize () =
  (* All clients hammer the same key: order must be preserved even with
     many executors — the final value equals the number of increments. *)
  let w =
    make_kv ~seed:9 ~keys:2 ~partitions:1 ~init:0L
      ~tweak:(fun c -> { c with Config.pipeline = executors 8 })
      ()
  in
  let per_client = 25 in
  for c = 0 to 3 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to per_client do
          ignore (System.submit w.sys ~from:node (Kv_app.Add (0, 1L)))
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 3);
  let st = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  check_i64 "all increments applied in order" (Int64.of_int (4 * per_client))
    (Bytes.get_int64_le (fst (Versioned_store.get st (Kv_app.oid_of_key 0))) 0);
  assert_replicas_converged w

(* {1 Conflict index (O(footprint) admission)} *)

let oids = List.map Oid.of_int

let test_conflict_index_rules () =
  let open Conflict_index in
  let t = create () in
  let a = footprint ~reads:(oids [ 1; 2 ]) ~writes:(oids [ 3 ]) in
  let rd3 = footprint ~reads:(oids [ 3 ]) ~writes:[] in
  let wr2 = footprint ~reads:[] ~writes:(oids [ 2 ]) in
  let shared = footprint ~reads:(oids [ 1; 2 ]) ~writes:(oids [ 4 ]) in
  check_bool "empty index admits" true (can_admit t a);
  admit t a;
  check_bool "read of in-flight write blocked" false (can_admit t rd3);
  check_bool "write of in-flight read blocked" false (can_admit t wr2);
  check_bool "shared readers admitted" true (can_admit t shared);
  admit t shared;
  retire t a;
  check_bool "retire reopens the written object" true (can_admit t rd3);
  check_bool "surviving reader still pins object 2" false (can_admit t wr2);
  retire t shared;
  check_bool "all clear after both retire" true (can_admit t wr2);
  check_int "index drains empty" 0 (live_objects t)

let test_conflict_index_normalization () =
  let open Conflict_index in
  (* Duplicates collapse, and a read of an object the request also
     writes is subsumed by the write entry. *)
  let f = footprint ~reads:(oids [ 5; 5; 6 ]) ~writes:(oids [ 5 ]) in
  check_int "dedup + read-of-own-write" 2 (footprint_size f);
  let t = create () in
  admit t f;
  check_bool "write entry blocks readers" false
    (can_admit t (footprint ~reads:(oids [ 5 ]) ~writes:[]));
  check_bool "read entry shares with readers" true
    (can_admit t (footprint ~reads:(oids [ 6 ]) ~writes:[]));
  check_bool "read entry blocks writers" false
    (can_admit t (footprint ~reads:[] ~writes:(oids [ 6 ])));
  retire t f;
  check_int "drained" 0 (live_objects t)

let test_conflict_index_admission_is_o_footprint () =
  (* Acceptance micro-check: admitting against 64 in-flight
     non-conflicting requests probes exactly as many index entries as
     against 8 — the candidate's own footprint size, independent of
     the in-flight count (the old scan was O(inflight x footprint)). *)
  let open Conflict_index in
  let probes_with inflight =
    let t = create () in
    for i = 0 to inflight - 1 do
      let f = footprint ~reads:[] ~writes:(oids [ 1000 + i ]) in
      assert (can_admit t f);
      admit t f
    done;
    let cand = footprint ~reads:(oids [ 1; 2; 3; 4 ]) ~writes:(oids [ 5; 6 ]) in
    let before = probes t in
    check_bool "candidate admissible" true (can_admit t cand);
    probes t - before
  in
  let p8 = probes_with 8 and p64 = probes_with 64 in
  check_int "admit cost independent of in-flight count" p8 p64;
  check_int "cost equals candidate footprint" 6 p64

(* {1 Coordination batching} *)

let test_one_doorbell_fanout () =
  (* Every coordination fan-out is one doorbell-batched WQE list: on an
     Incr_all workload over 2 partitions x 3 replicas every op
     completes, the replicas converge, the doorbells carry the
     per-announce fan-out (5 remote slots each), and
     [rdma.verb.count{verb=write_post}] counts doorbells, not WQEs. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:29 ~keys:4 ~partitions:2 ~init:0L
      ~tweak:(fun c -> { c with Config.metrics = reg })
      ()
  in
  let completed = ref 0 in
  for c = 0 to 2 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to 25 do
          ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
          incr completed
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 5);
  check_int "all ops completed" 75 !completed;
  assert_replicas_converged w;
  let snap = Heron_obs.Metrics.snapshot reg in
  let total name labels =
    List.fold_left
      (fun acc e ->
        match e.Heron_obs.Metrics.e_value with
        | Heron_obs.Metrics.Counter_v n
          when e.Heron_obs.Metrics.e_name = name
               && List.for_all (fun l -> List.mem l e.Heron_obs.Metrics.e_labels) labels ->
            acc + n
        | _ -> acc)
      0 snap
  in
  let rings = total "rdma.doorbell.rings" [] in
  let wqes = total "rdma.doorbell.wqes" [] in
  let posts = total "rdma.verb.count" [ ("verb", "write_post") ] in
  check_bool "doorbells rang" true (rings > 0);
  check_bool
    (Printf.sprintf "fan-out factor per doorbell (%d WQEs over %d rings)" wqes rings)
    true
    (wqes >= 4 * rings);
  check_int "write_post counts doorbells" rings posts

(* {1 Compartmentalized pipeline (DESIGN.md §12)} *)

let pipe_cfg ?(batch = 4) ?(flush = 10_000) ?(executors = 4) () =
  {
    Config.pipe_enabled = true;
    pipe_batch_size = batch;
    pipe_flush_timeout_ns = flush;
    pipe_executors = executors;
  }

let test_pipeline_onoff_equivalence () =
  (* The pipeline (batcher + sequencer + executor pool + coordination
     writer) changes scheduling and cost, never outcomes: an
     increment-only workload (order-independent final state, mixing
     batched single-partition Adds with barrier multi-partition
     Incr_alls) must complete fully and converge to byte-identical
     stores with pipelining on and off, while batching cuts the number
     of multicast submissions. *)
  let run pipe =
    let reg = Heron_obs.Metrics.create () in
    let w =
      make_kv ~seed:37 ~keys:4 ~partitions:2 ~init:0L
        ~tweak:(fun c -> { c with Config.pipeline = pipe; metrics = reg })
        ()
    in
    let completed = ref 0 in
    for c = 0 to 2 do
      on_client w (Printf.sprintf "c%d" c) (fun node ->
          for i = 1 to 25 do
            let op =
              if i mod 5 = 0 then Kv_app.Incr_all [ 0; 1 ]
              else Kv_app.Add ((c + i) mod 4, 1L)
            in
            ignore (System.submit w.sys ~from:node op);
            incr completed
          done)
    done;
    Engine.run_until w.eng (Time_ns.s 5);
    assert_replicas_converged w;
    let state =
      List.concat_map
        (fun part ->
          let st = Replica.store (System.replica w.sys ~part ~idx:0) in
          List.map
            (fun oid ->
              (part, Oid.to_int oid, Bytes.to_string (fst (Versioned_store.get st oid))))
            (Versioned_store.registered_oids st))
        [ 0; 1 ]
    in
    let submits =
      Heron_obs.Metrics.counter_value
        (Heron_obs.Metrics.counter reg "mcast.submits")
    in
    (!completed, state, submits)
  in
  let c_on, s_on, submits_on = run (pipe_cfg ()) in
  let c_off, s_off, submits_off = run Config.default_pipeline in
  check_int "all ops completed (pipeline on)" 75 c_on;
  check_int "all ops completed (pipeline off)" 75 c_off;
  check_bool "identical final state" true (s_on = s_off);
  check_bool
    (Printf.sprintf "batching cuts multicast submissions (%d on vs %d off)"
       submits_on submits_off)
    true
    (submits_on > 0 && submits_on < submits_off)

let pipeline_flush_timeout_prop =
  QCheck.Test.make
    ~name:"batcher flushes every request within flush_timeout at low load"
    ~count:6
    (Qc.int_range 2_000 40_000)
    (fun timeout_ns ->
      (* One closed-loop client can never fill a size-8 batch, so every
         flush is timeout-driven: the recorded batch wait (enqueue to
         flush) must never exceed the configured timeout — the
         no-starvation bound. *)
      let reg = Heron_obs.Metrics.create () in
      let w =
        make_kv ~seed:17 ~keys:4 ~partitions:2 ~init:0L
          ~tweak:(fun c ->
            {
              c with
              Config.pipeline = pipe_cfg ~batch:8 ~flush:timeout_ns ();
              metrics = reg;
            })
          ()
      in
      let completed = ref 0 in
      on_client w "c0" (fun node ->
          for i = 1 to 12 do
            ignore (System.submit w.sys ~from:node (Kv_app.Put (i mod 4, 1L)));
            incr completed
          done);
      Engine.run_until w.eng (Time_ns.s 2);
      let h = Heron_obs.Metrics.histogram reg "pipeline.batch_wait_ns" in
      !completed = 12
      && Heron_obs.Metrics.hist_count h > 0
      && Heron_obs.Metrics.hist_max h <= timeout_ns)

let test_pipeline_conflicts_serialize () =
  (* All clients hammer one key through the full pipeline: conflict
     admission must serialize them and lose nothing. *)
  let w =
    make_kv ~seed:11 ~keys:2 ~partitions:1 ~init:0L
      ~tweak:(fun c -> { c with Config.pipeline = pipe_cfg ~executors:8 () })
      ()
  in
  let per_client = 25 in
  for c = 0 to 3 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to per_client do
          ignore (System.submit w.sys ~from:node (Kv_app.Add (0, 1L)))
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 3);
  let st = Replica.store (System.replica w.sys ~part:0 ~idx:0) in
  check_i64 "all increments applied in order" (Int64.of_int (4 * per_client))
    (Bytes.get_int64_le (fst (Versioned_store.get st (Kv_app.oid_of_key 0))) 0);
  assert_replicas_converged w

let test_pipeline_rejects_bad_pool () =
  (* Pool settings are validated, not clamped: zero executors would
     never drain an admitted request, and batch size 0 never triggers a
     size flush. With the pipeline off neither setting is read. *)
  let rejected pl =
    match make_kv ~partitions:1 ~tweak:(fun c -> { c with Config.pipeline = pl }) () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "zero executors rejected" true (rejected (pipe_cfg ~executors:0 ()));
  check_bool "zero batch size rejected" true (rejected (pipe_cfg ~batch:0 ()));
  check_bool "pipeline off accepts them" false
    (rejected { (pipe_cfg ~executors:0 ~batch:0 ()) with Config.pipe_enabled = false })

(* Kv_app requests carrying an extra execution cost (virtual ns). *)
let costed_kv ~keys =
  let kv = Kv_app.app ~keys ~partitions:1 ~init:0L in
  {
    App.app_name = "costed-kv";
    placement_of = kv.App.placement_of;
    klass_of = kv.App.klass_of;
    read_set = (fun (_, rq) -> kv.App.read_set rq);
    read_plan = (fun ~part (_, rq) -> kv.App.read_plan ~part rq);
    write_sketch = (fun (_, rq) -> kv.App.write_sketch rq);
    req_size = (fun (_, rq) -> kv.App.req_size rq);
    resp_size = kv.App.resp_size;
    execute =
      (fun ctx (cost, rq) ->
        ctx.App.ctx_charge cost;
        kv.App.execute ctx rq);
    serial_hint = (fun (_, rq) -> kv.App.serial_hint rq);
    read_only = (fun (_, rq) -> kv.App.read_only rq);
    catalog = kv.App.catalog;
  }

let test_pipeline_frontier_prefix_closed () =
  (* A slow request and then a fast one on disjoint keys share one
     batch and run on two executors. The fast one finishes and replies
     first, but the applied frontier may only cover a prefix of the
     delivery order: until the slow one is done, no replica's
     last_applied moves. Afterwards it covers both. *)
  let eng = Engine.create ~seed:3 () in
  let cfg =
    {
      (Config.default ~partitions:1 ~replicas:3) with
      Config.pipeline = pipe_cfg ~batch:2 ~flush:(Time_ns.ms 1) ~executors:2 ();
    }
  in
  let sys = System.create eng ~cfg ~app:(costed_kv ~keys:4) in
  System.start sys;
  let replicas () = Array.to_list (System.replicas sys).(0) in
  let slow_done = ref false in
  (* (slow already replied, some replica sequenced the batch, applied
     frontiers) at the instant the fast reply reaches its client *)
  let at_fast_reply = ref None in
  let spawn name f =
    let node = System.new_client_node sys ~name in
    Fabric.spawn_on node (fun () -> f node)
  in
  spawn "slow" (fun node ->
      ignore (System.submit sys ~from:node (Time_ns.us 200, Kv_app.Put (0, 1L)));
      slow_done := true);
  spawn "fast" (fun node ->
      (* Join the open batch behind the slow request. *)
      Engine.sleep (Time_ns.us 1);
      ignore (System.submit sys ~from:node (0, Kv_app.Put (1, 1L)));
      at_fast_reply :=
        Some
          ( !slow_done,
            List.exists (fun r -> Tstamp.(Tstamp.zero < Replica.last_req r)) (replicas ()),
            List.map Replica.last_applied (replicas ()) ));
  Engine.run_until eng (Time_ns.ms 5);
  (match !at_fast_reply with
  | None -> Alcotest.fail "fast request never replied"
  | Some (slow_first, sequenced, frontiers) ->
      check_bool "fast reply precedes slow" false slow_first;
      check_bool "batch sequenced" true sequenced;
      List.iter
        (fun f ->
          check_bool "frontier held behind the slow request" true
            (Tstamp.equal f Tstamp.zero))
        frontiers);
  check_bool "slow replied" true !slow_done;
  List.iter
    (fun r ->
      check_bool "frontier covers both" true
        (Tstamp.(Tstamp.zero < Replica.last_applied r)
        && Tstamp.equal (Replica.last_applied r) (Replica.last_req r)))
    (replicas ())

let tc name f = Alcotest.test_case name `Quick f

(* {1 Durability: checkpointing + log compaction (DESIGN.md §13)} *)

let dur_tweak ?(interval = 500_000) reg c =
  {
    c with
    Config.durability = { Config.dur_enabled = true; dur_interval_ns = interval };
    metrics = reg;
  }

let counter_of reg name = count_in (Heron_obs.Metrics.snapshot reg) name

let test_durability_onoff_equivalence () =
  (* Checkpointing is a refinement: it truncates logs and publishes
     frontiers but never changes delivery or execution. The same
     Incr_all workload (order-independent final state) must complete
     fully and converge to byte-identical stores with durability on and
     off — while the on-run actually checkpoints and truncates. *)
  let run durable =
    let reg = Heron_obs.Metrics.create () in
    let w =
      make_kv ~seed:29 ~keys:4 ~partitions:2 ~init:0L
        ~tweak:(fun c -> if durable then dur_tweak reg c else { c with Config.metrics = reg })
        ()
    in
    let completed = ref 0 in
    for c = 0 to 2 do
      on_client w (Printf.sprintf "c%d" c) (fun node ->
          for _ = 1 to 25 do
            ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
            incr completed
          done)
    done;
    Engine.run_until w.eng (Time_ns.s 5);
    assert_replicas_converged w;
    let state =
      List.concat_map
        (fun part ->
          let st = Replica.store (System.replica w.sys ~part ~idx:0) in
          List.map
            (fun oid ->
              (part, Oid.to_int oid, Bytes.to_string (fst (Versioned_store.get st oid))))
            (Versioned_store.registered_oids st))
        [ 0; 1 ]
    in
    (!completed, state, reg)
  in
  let c_on, s_on, reg_on = run true in
  let c_off, s_off, reg_off = run false in
  check_int "all ops completed (durability on)" 75 c_on;
  check_int "all ops completed (durability off)" 75 c_off;
  check_bool "identical final state" true (s_on = s_off);
  check_bool "checkpoints taken" true (counter_of reg_on "durability.checkpoints" > 0);
  check_bool "log entries truncated" true
    (counter_of reg_on "durability.truncated_entries" > 0);
  check_int "durability off takes no checkpoints" 0
    (counter_of reg_off "durability.checkpoints")

let test_durability_truncated_donor_rejoin () =
  (* The adversarial rejoin: while a follower is down, every live
     replica checkpoints and truncates its update log past the crash
     point. The rejoining replica's delta request then reaches behind
     every donor's log — forcing the checkpoint-bootstrap path
     (checkpoint cells + O(delta) log suffix) instead of a plain delta
     or an unbounded full transfer. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:23 ~keys:6 ~partitions:2 ~init:10L ~tweak:(dur_tweak reg) ()
  in
  let victim_node = Replica.node (System.replica w.sys ~part:0 ~idx:2) in
  let after_ops = ref 0 in
  on_client w "driver" (fun node ->
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done;
      Fabric.crash victim_node;
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
      done;
      (* A dozen checkpoint intervals: live replicas truncate past the
         crash point (the dead peer's stale frontier is ignored). *)
      Engine.sleep (Time_ns.ms 6);
      System.restart_replica w.sys ~part:0 ~idx:2;
      Engine.sleep (Time_ns.ms 5);
      for _ = 1 to 15 do
        ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
        incr after_ops
      done);
  Engine.run_until w.eng (Time_ns.s 5);
  check_int "post-restart requests completed" 15 !after_ops;
  assert_replicas_converged w;
  check_bool "rejoin bootstrapped from a checkpoint" true
    (counter_of reg "durability.checkpoint_bootstraps" >= 1);
  check_bool "bootstrap shipped bytes" true
    (counter_of reg "durability.rejoin_bytes" > 0);
  let fresh = System.replica w.sys ~part:0 ~idx:2 in
  check_i64 "state reflects all 45 increments" 55L
    (Bytes.get_int64_le
       (fst (Versioned_store.get (Replica.store fresh) (Kv_app.oid_of_key 0)))
       0)

let test_durability_truncation_races_migration () =
  (* Checkpoint truncation racing a live migration: while keys move
     between partitions (adoption gaps poisoning dst logs, §10), the
     checkpoint fiber keeps truncating behind the live frontier. The
     two frontiers must compose without deadlock or divergence, and a
     follower crash/rejoin in the middle must still converge. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:31 ~keys:4 ~partitions:2 ~init:0L
      ~tweak:(fun c -> dur_tweak reg { c with Config.reconfig = { Config.enabled = true } })
      ()
  in
  let completed = ref 0 in
  for c = 0 to 2 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for _ = 1 to 25 do
          ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1 ]));
          incr completed
        done)
  done;
  let mig = System.new_client_node w.sys ~name:"migrator" in
  let moved = ref false in
  Fabric.spawn_on mig (fun () ->
      Engine.sleep (Time_ns.ms 2);
      (match
         Heron_reconfig.Migration.migrate w.sys ~from:mig
           ~oids:[ Kv_app.oid_of_key 0 ] ~dst:1
       with
      | Ok () -> moved := true
      | Error e -> Alcotest.failf "migration failed: %s" e);
      (* Let checkpoints truncate past the migration cut, then bounce a
         follower of the destination so its rejoin crosses both the
         adoption gap and the truncated logs. *)
      Engine.sleep (Time_ns.ms 3);
      Fabric.crash (Replica.node (System.replica w.sys ~part:1 ~idx:2));
      Engine.sleep (Time_ns.ms 3);
      System.restart_replica w.sys ~part:1 ~idx:2);
  Engine.run_until w.eng (Time_ns.s 5);
  check_int "all ops completed" 75 !completed;
  check_bool "migration committed" true !moved;
  check_bool "key rehomed" true
    (Placement.placement_under
       (Placement.view (System.directory w.sys))
       (System.app w.sys).App.placement_of (Kv_app.oid_of_key 0)
    = App.Partition 1);
  assert_replicas_converged w;
  check_bool "checkpoints taken throughout" true
    (counter_of reg "durability.checkpoints" > 0);
  check_bool "truncation kept pace" true
    (counter_of reg "durability.truncated_entries" > 0)

(* {1 Multicast log reclamation, durability off}

   The leader drops the log prefix every live replica has applied
   (Ramcast.log_retained). Closed-loop clients keep at most one request
   each in flight, so what a member retains is bounded by the client
   count, however long the run. *)

let retained_max sys =
  let mc = System.multicast sys in
  let worst = ref 0 in
  Array.iter
    (Array.iter (fun r ->
         if Fabric.is_alive (Replica.node r) then
           worst :=
             max !worst
               (Heron_multicast.Ramcast.log_retained mc ~gid:(Replica.part r)
                  ~idx:(Replica.idx r))))
    (System.replicas sys);
  !worst

(* Sample [retained_max] every 20 us until [until], from a node of its
   own. *)
let sample_retained w ~until =
  let samples = ref [] in
  on_client w "sampler" (fun _ ->
      while Engine.self_now () < until do
        Engine.sleep (Time_ns.us 20);
        samples := (Engine.self_now (), retained_max w.sys) :: !samples
      done);
  samples

(* Retention bound for [clients] closed-loop clients: about [2 x
   clients] entries lie past the slowest member's last reported applied
   length (the requests in flight when it reported and those decided
   since), and the leader reclaims once that much is half the log. *)
let retained_bound ~clients = 4 * clients

let test_reclaim_bounded () =
  let reg = Heron_obs.Metrics.create () in
  let clients = 4 and per_client = 1_000 in
  let w = make_kv ~seed:41 ~keys:8 ~tweak:(fun c -> { c with Config.metrics = reg }) () in
  let samples = sample_retained w ~until:(Time_ns.ms 100) in
  let completed = ref 0 in
  for c = 0 to clients - 1 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        let rng = Random.State.make [| c |] in
        for _ = 1 to per_client do
          let k = Random.State.int rng 8 in
          let req =
            if Random.State.int rng 4 = 0 then Kv_app.Incr_all [ k; (k + 1) mod 8 ]
            else Kv_app.Add (k, 1L)
          in
          ignore (System.submit w.sys ~from:node req);
          incr completed
        done)
  done;
  Engine.run_until w.eng (Time_ns.s 5);
  check_int "all requests completed" (clients * per_client) !completed;
  let peak = List.fold_left (fun acc (_, n) -> max acc n) 0 !samples in
  check_bool
    (Printf.sprintf "peak retention %d within %d" peak (retained_bound ~clients))
    true
    (peak <= retained_bound ~clients);
  check_bool "the log was reclaimed" true
    (counter_of reg "mcast.compacted_entries" > clients * per_client)

let test_reclaim_paused_follower () =
  (* p0/r2 executes 20 us slower per request for 3 ms: it applies
     behind its peers, so the cut stays at its applied length and the
     leader's log grows; once it catches up the log is reclaimed. *)
  let clients = 4 in
  let w = make_kv ~seed:43 ~keys:8 () in
  let samples = sample_retained w ~until:(Time_ns.ms 10) in
  let lagger = System.replica w.sys ~part:0 ~idx:2 in
  for c = 0 to clients - 1 do
    on_client w (Printf.sprintf "c%d" c) (fun node ->
        for i = 1 to 600 do
          (* Even keys live in partition 0. *)
          ignore (System.submit w.sys ~from:node (Kv_app.Add (2 * ((c + i) mod 4), 1L)))
        done)
  done;
  on_client w "pauser" (fun _ ->
      Engine.sleep (Time_ns.ms 2);
      Replica.inject_exec_delay lagger (Time_ns.us 20);
      Engine.sleep (Time_ns.ms 3);
      Replica.inject_exec_delay lagger 0);
  Engine.run_until w.eng (Time_ns.s 5);
  let peak_in lo hi =
    List.fold_left
      (fun acc (t, n) -> if t >= lo && t < hi then max acc n else acc)
      0 !samples
  in
  let bound = retained_bound ~clients in
  let before = peak_in 0 (Time_ns.ms 2)
  and paused = peak_in (Time_ns.ms 2) (Time_ns.ms 5)
  and after = peak_in (Time_ns.ms 6) (Time_ns.ms 9) in
  check_bool (Printf.sprintf "within %d before the pause (%d)" bound before) true
    (before <= bound);
  check_bool (Printf.sprintf "the lagger holds the cut (%d)" paused) true
    (paused > 4 * bound);
  check_bool (Printf.sprintf "reclaimed after the catch-up (%d)" after) true
    (after <= bound)

let test_reclaim_rejoin () =
  (* A follower crashes, the live members reclaim past its crash
     point, and it rejoins from a donor's snapshot plus the retained
     suffix. The Incr_all workload is order-independent, so the final
     state must equal a durability-on run's under the same schedule. *)
  let run durable =
    let reg = Heron_obs.Metrics.create () in
    let w =
      make_kv ~seed:47 ~keys:4 ~partitions:2 ~init:0L
        ~tweak:(fun c -> if durable then dur_tweak reg c else { c with Config.metrics = reg })
        ()
    in
    let victim = Replica.node (System.replica w.sys ~part:0 ~idx:2) in
    let compacted_at_restart = ref 0 in
    let completed = ref 0 in
    for c = 0 to 2 do
      on_client w (Printf.sprintf "c%d" c) (fun node ->
          for _ = 1 to 200 do
            ignore (System.submit w.sys ~from:node (Kv_app.Incr_all [ 0; 1; 2; 3 ]));
            incr completed
          done)
    done;
    on_client w "bouncer" (fun _ ->
        Engine.sleep (Time_ns.us 500);
        Fabric.crash victim;
        Engine.sleep (Time_ns.ms 2);
        compacted_at_restart := counter_of reg "mcast.compacted_entries";
        System.restart_replica w.sys ~part:0 ~idx:2);
    Engine.run_until w.eng (Time_ns.s 5);
    check_int "all ops completed" 600 !completed;
    assert_replicas_converged w;
    let state =
      List.concat_map
        (fun part ->
          let st = Replica.store (System.replica w.sys ~part ~idx:2) in
          List.map
            (fun oid -> (part, Oid.to_int oid, Bytes.to_string (fst (Versioned_store.get st oid))))
            (Versioned_store.registered_oids st))
        [ 0; 1 ]
    in
    (state, !compacted_at_restart, counter_of reg "mcast.rejoin_replayed")
  in
  let s_off, compacted, replayed = run false in
  let s_on, _, _ = run true in
  check_bool "reclaimed while the follower was down" true (compacted > 100);
  check_bool (Printf.sprintf "the rejoin replayed a suffix (%d entries)" replayed) true
    (replayed < 100);
  check_bool "same final state as with durability on" true (s_off = s_on)

(* {1 Fast reads: lease-based local linearizable reads (DESIGN.md §14)} *)

let fr_tweak ?(write_wait = true) reg c =
  {
    c with
    Config.fast_reads =
      { Config.default_fast_reads with
        Config.fr_enabled = true;
        fr_write_wait = write_wait };
    metrics = reg;
  }

let test_read_lease_table () =
  let eng = Engine.create ~seed:1 () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let node = Fabric.add_node fab ~name:"rl" in
  let t = Read_lease.create node ~replicas:3 in
  check_bool "no entry before first grant" true (Read_lease.entry t ~idx:1 = None);
  Read_lease.apply_grant t ~idx:1 ~incarnation:1 ~expiry_ns:1_000 ~at:(tmp 5);
  Read_lease.apply_grant t ~idx:1 ~incarnation:2 ~expiry_ns:2_000 ~at:(tmp 9);
  (match Read_lease.entry t ~idx:1 with
  | Some e ->
      check_int "renewal wins" 2 e.Read_lease.le_incarnation;
      check_bool "grant position advanced" true
        (Tstamp.equal e.Read_lease.le_grant (tmp 9))
  | None -> Alcotest.fail "entry missing");
  (* A grant older than the held entry — redelivered behind an adopted
     donor snapshot — must not rewind the table. *)
  Read_lease.apply_grant t ~idx:1 ~incarnation:9 ~expiry_ns:9_000 ~at:(tmp 5);
  (match Read_lease.entry t ~idx:1 with
  | Some e -> check_int "older grant ignored" 2 e.Read_lease.le_incarnation
  | None -> Alcotest.fail "entry missing");
  (* Frontier copies carry the publisher's epoch tag. *)
  Read_lease.write_copy_local t ~idx:2 (tmp 7) ~epoch:3;
  let f, ep = Read_lease.read_copy t ~idx:2 in
  check_bool "copy frontier" true (Tstamp.equal f (tmp 7));
  check_int "copy epoch" 3 ep;
  let by = Read_lease.encode_copy (tmp 7) ~epoch:3 in
  check_i64 "encoded frontier" (Tstamp.to_int64 (tmp 7)) (Bytes.get_int64_le by 0);
  check_i64 "encoded epoch" 3L (Bytes.get_int64_le by 8);
  (* Snapshots deep-copy and adopt merges by grant position. *)
  let snap = Read_lease.snapshot t in
  check_int "snapshot footprint" 24 (Read_lease.snapshot_bytes snap);
  let t2 = Read_lease.create node ~replicas:3 in
  Read_lease.apply_grant t2 ~idx:1 ~incarnation:4 ~expiry_ns:4_000 ~at:(tmp 11);
  Read_lease.adopt t2 snap;
  match Read_lease.entry t2 ~idx:1 with
  | Some e ->
      check_bool "newer live entry survives adoption" true
        (Tstamp.equal e.Read_lease.le_grant (tmp 11))
  | None -> Alcotest.fail "adopt dropped the entry"

let test_fast_reads_end_to_end () =
  let reg = Heron_obs.Metrics.create () in
  let w = make_kv ~seed:37 ~keys:4 ~partitions:1 ~tweak:(fr_tweak reg) () in
  let vals = ref [] in
  on_client w "c0" (fun node ->
      ignore (System.submit w.sys ~from:node (Kv_app.Put (3, 42L)));
      for _ = 1 to 6 do
        vals :=
          value_resp (snd (List.hd (System.submit w.sys ~from:node (Kv_app.Get 3))))
          :: !vals
      done);
  Engine.run_until w.eng (Time_ns.ms 10);
  check_int "all reads answered" 6 (List.length !vals);
  List.iter (fun v -> check_i64 "read sees the committed write" 42L v) !vals;
  check_bool "some reads served from leases" true
    (counter_of reg "reads.local_served" > 0);
  assert_replicas_converged w

let run_stale_read_probe ~write_wait =
  (* One replica lags every execution by 400us. A write is acknowledged
     as soon as a fast replica replies; the reads that follow
     round-robin across all three replicas, so one of them lands on the
     lagger while it still holds a valid lease but has not yet applied
     the write. Only the writer's commit-wait (fr_write_wait) closes
     that window. *)
  let reg = Heron_obs.Metrics.create () in
  let w =
    make_kv ~seed:41 ~keys:4 ~partitions:1 ~tweak:(fr_tweak ~write_wait reg) ()
  in
  Replica.inject_exec_delay (System.replica w.sys ~part:0 ~idx:2) (Time_ns.us 400);
  let vals = ref [] in
  on_client w "c0" (fun node ->
      (* Let the startup grants deliver so every replica holds a lease. *)
      Engine.sleep (Time_ns.us 50);
      ignore (System.submit w.sys ~from:node (Kv_app.Put (0, 7L)));
      for _ = 1 to 3 do
        vals :=
          value_resp (snd (List.hd (System.submit w.sys ~from:node (Kv_app.Get 0))))
          :: !vals
      done);
  Engine.run_until w.eng (Time_ns.ms 20);
  check_int "all reads answered" 3 (List.length !vals);
  !vals

let test_fast_reads_commit_wait_regression () =
  (* Pinned stale-read scenario: with the commit-wait deliberately
     disabled the lagging lease holder serves the pre-write value after
     the write was acknowledged — the linearizability violation the
     protocol exists to prevent. The identical run with fr_write_wait
     on must read fresh everywhere. A refactor that weakens the
     commit-wait turns the second half of this test red. *)
  let stale = run_stale_read_probe ~write_wait:false in
  check_bool "unsafe config caught serving a stale read" true
    (List.exists (fun v -> Int64.equal v 0L) stale);
  let safe = run_stale_read_probe ~write_wait:true in
  List.iter (fun v -> check_i64 "commit-wait keeps reads fresh" 7L v) safe

let test_fast_reads_crash_recovery () =
  (* Bounce a lease-holding follower mid-traffic: writes must not stall
     past the lease term (the dead holder's epoch no longer matches its
     entry), reads during the outage keep linearizing, and the rejoiner
     resumes serving locally under a fresh-incarnation lease. *)
  let reg = Heron_obs.Metrics.create () in
  let w = make_kv ~seed:43 ~keys:4 ~partitions:1 ~tweak:(fr_tweak reg) () in
  let bad = ref 0 and completed = ref 0 in
  on_client w "c0" (fun node ->
      for i = 1 to 30 do
        ignore (System.submit w.sys ~from:node (Kv_app.Put (0, Int64.of_int i)));
        let v =
          value_resp (snd (List.hd (System.submit w.sys ~from:node (Kv_app.Get 0))))
        in
        if not (Int64.equal v (Int64.of_int i)) then incr bad;
        incr completed
      done);
  on_client w "chaos" (fun _ ->
      Engine.sleep (Time_ns.us 300);
      Fabric.crash (Replica.node (System.replica w.sys ~part:0 ~idx:2));
      Engine.sleep (Time_ns.ms 4);
      System.restart_replica w.sys ~part:0 ~idx:2);
  Engine.run_until w.eng (Time_ns.s 2);
  check_int "all rounds completed" 30 !completed;
  check_int "every read saw its own write" 0 !bad;
  check_bool "fast path still in use" true (counter_of reg "reads.local_served" > 0);
  assert_replicas_converged w

let suite =
  [
    ( "core.store",
      [
        tc "register and get" test_store_register_get;
        tc "dual versioning" test_store_dual_versioning;
        tc "idempotent same-tmp set" test_store_set_same_tmp_idempotent;
        tc "local class" test_store_local_class;
        tc "cell roundtrip" test_store_cell_roundtrip;
        tc "raw cell copy" test_store_write_raw_cell;
        tc "capacity checks" test_store_capacity_checks;
        tc "get_at_most" test_store_get_at_most;
        Qc.test store_version_prop;
        tc "remote read vs write race" test_store_remote_read_write_race;
        tc "out-of-order writes" test_store_out_of_order_writes;
        Qc.test store_interleaving_prop;
        tc "initial value is copied once, never written through"
          test_store_initial_value_copied_once;
        tc "local object footprint" test_store_local_footprint;
      ] );
    ( "core.update_log",
      [
        tc "range queries" test_log_range;
        tc "truncation" test_log_truncation;
        tc "out-of-order appends" test_log_out_of_order;
        tc "note_gap: hole at log head" test_log_note_gap_head;
        tc "note_gap: monotone across transfers" test_log_note_gap_monotone;
        tc "note_gap: gap spanning truncation" test_log_gap_spanning_truncation;
        tc "explicit truncation at a checkpoint cut" test_log_explicit_truncate;
        tc "truncate composes with note_gap" test_log_truncate_note_gap_compose;
        Qc.test log_truncate_model_prop;
        Qc.test log_range_model_prop;
        Qc.test log_gap_migration_prop;
        Qc.test log_ring_model_prop;
        tc "ring growth, wrap-around and overflow" test_log_ring_wrap;
        tc "footprint per entry" test_log_footprint;
      ] );
    ( "core.memories",
      [ tc "coord_mem" test_coord_mem; tc "statesync_mem" test_statesync_mem ] );
    ( "core.kv",
      [
        tc "single partition" test_kv_single_partition;
        tc "multi-partition transfer" test_kv_multi_partition_transfer;
        tc "fig3 snapshot invariant" test_kv_fig3_invariant;
        tc "conservation under load" test_kv_conservation;
        tc "determinism" test_kv_determinism;
        tc "stats recorded" test_kv_stats_recorded;
        tc "trace spans" test_kv_trace_spans;
        tc "read outside read set rejected" test_kv_read_outside_read_set_rejected;
        Qc.test fig3_invariant_prop;
      ] );
    ( "core.execution",
      [ tc "charges paid once per observable step" test_execution_debt ] );
    ( "core.failures",
      [
        tc "lagger recovers via state transfer" test_kv_lagger_state_transfer;
        tc "forced state transfer" test_kv_forced_state_transfer;
        tc "back-to-back adopted transfers" test_kv_back_to_back_adopted_transfers;
        tc "replica crash tolerated" test_kv_replica_crash_tolerated;
        tc "crash, restart, full rejoin" test_kv_crash_restart_rejoin;
        tc "restart continues the slot's series" test_kv_restart_continues_series;
        tc "multicast leader crash + ex-leader rejoin" test_kv_leader_crash_tolerated;
        tc "chaos regression: rejoin gap (seed 3206)" test_chaos_regression_rejoin_gap;
        Qc.test chaos_crash_restart_prop;
        Qc.test chaos_crash_restart_durability_prop;
      ] );
    ( "core.parallel",
      [
        tc "correctness with workers" test_parallel_correctness;
        tc "speedup on disjoint keys" test_parallel_speedup;
        tc "conflicting requests serialize" test_parallel_conflicts_serialize;
      ] );
    ( "core.conflict_index",
      [
        tc "admission rules" test_conflict_index_rules;
        tc "footprint normalization" test_conflict_index_normalization;
        tc "admission is O(footprint)" test_conflict_index_admission_is_o_footprint;
      ] );
    ( "core.coordination",
      [ tc "one doorbell per fan-out" test_one_doorbell_fanout ] );
    ( "core.reclaim",
      [
        tc "multicast log bounded by the client count" test_reclaim_bounded;
        tc "paused follower holds the cut" test_reclaim_paused_follower;
        tc "rejoin after reclamation" test_reclaim_rejoin;
      ] );
    ( "core.durability",
      [
        tc "durability on/off equivalence" test_durability_onoff_equivalence;
        tc "truncated-donor rejoin bootstraps from checkpoint"
          test_durability_truncated_donor_rejoin;
        tc "truncation races migration" test_durability_truncation_races_migration;
      ] );
    ( "core.pipeline",
      [
        tc "pipeline on/off equivalence" test_pipeline_onoff_equivalence;
        tc "conflicting requests serialize" test_pipeline_conflicts_serialize;
        tc "bad pool settings rejected" test_pipeline_rejects_bad_pool;
        tc "frontier stays prefix-closed under the pool"
          test_pipeline_frontier_prefix_closed;
        Qc.test pipeline_flush_timeout_prop;
      ] );
    ( "core.fast_reads",
      [
        tc "lease table grants, copies, snapshots" test_read_lease_table;
        tc "local reads observe committed writes" test_fast_reads_end_to_end;
        tc "stale read without commit-wait (regression)"
          test_fast_reads_commit_wait_regression;
        tc "lease holder crash and rejoin" test_fast_reads_crash_recovery;
      ] );
  ]

let () = Alcotest.run "heron_core" suite
