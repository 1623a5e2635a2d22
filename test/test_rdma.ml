(* Tests for heron_rdma: memory regions, the fabric, and one-sided
   verbs with RC semantics, latency accounting and failure behaviour. *)

open Heron_sim
open Heron_rdma

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_bytes msg a b = Alcotest.(check string) msg (Bytes.to_string a) (Bytes.to_string b)

(* {1 Memory} *)

let test_memory_rw () =
  let r = Memory.make_region ~rid:0 ~size:64 in
  check_int "size" 64 (Memory.region_size r);
  Memory.write_bytes r ~off:10 (Bytes.of_string "hello");
  check_bytes "roundtrip" (Bytes.of_string "hello") (Memory.read_bytes r ~off:10 ~len:5);
  check_bytes "zero fill" (Bytes.of_string "\000\000") (Memory.read_bytes r ~off:0 ~len:2)

let test_memory_bounds () =
  let r = Memory.make_region ~rid:1 ~size:16 in
  let oob f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "read past end" true (oob (fun () -> Memory.read_bytes r ~off:10 ~len:8));
  check_bool "negative off" true (oob (fun () -> Memory.read_bytes r ~off:(-1) ~len:2));
  check_bool "write past end" true
    (oob (fun () -> Memory.write_bytes r ~off:12 (Bytes.of_string "abcdefgh")));
  check_bool "i64 past end" true (oob (fun () -> Memory.get_i64 r ~off:12))

let test_memory_i64 () =
  let r = Memory.make_region ~rid:2 ~size:32 in
  Memory.set_i64 r ~off:8 0x1122334455667788L;
  Alcotest.(check int64) "i64 roundtrip" 0x1122334455667788L (Memory.get_i64 r ~off:8)

let test_memory_wipe () =
  let r = Memory.make_region ~rid:3 ~size:8 in
  Memory.set_i64 r ~off:0 99L;
  Memory.wipe r;
  Alcotest.(check int64) "wiped" 0L (Memory.get_i64 r ~off:0)

let test_memory_addr () =
  let r = Memory.make_region ~rid:7 ~size:8 in
  let a = Memory.addr ~node:3 r ~off:2 in
  check_int "node" 3 a.Memory.mem_node;
  check_int "rid" 7 a.Memory.mem_rid;
  check_int "off" 2 a.Memory.mem_off;
  check_int "shift" 6 (Memory.shift a 4).Memory.mem_off

(* {1 Fabric + Qp helpers} *)

let make_pair () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let a = Fabric.add_node fab ~name:"a" in
  let b = Fabric.add_node fab ~name:"b" in
  (eng, fab, a, b)

(* {1 Fabric} *)

let test_fabric_nodes () =
  let _, fab, a, b = make_pair () in
  check_int "count" 2 (Fabric.node_count fab);
  check_bool "alive" true (Fabric.is_alive a);
  Alcotest.(check string) "name" "b" (Fabric.node_name b);
  check_bool "find" true (Fabric.find_node fab (Fabric.node_id a) == a)

let test_fabric_local_rw () =
  let _, _, a, _ = make_pair () in
  let r = Fabric.alloc_region a ~size:32 in
  let addr = Memory.addr ~node:(Fabric.node_id a) r ~off:4 in
  Fabric.local_write a addr (Bytes.of_string "xyz");
  check_bytes "local rw" (Bytes.of_string "xyz") (Fabric.local_read a addr ~len:3)

let test_fabric_local_wrong_node () =
  let _, _, a, b = make_pair () in
  let r = Fabric.alloc_region a ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id a) r ~off:0 in
  Alcotest.check_raises "wrong node"
    (Invalid_argument "Fabric: address does not name this node")
    (fun () -> ignore (Fabric.local_read b addr ~len:1))

let test_fabric_crash_cancels_fibers () =
  let eng, _, a, _ = make_pair () in
  let steps = ref 0 in
  Fabric.spawn_on a (fun () ->
      for _ = 1 to 100 do
        Engine.sleep (Time_ns.us 1);
        incr steps
      done);
  Engine.spawn eng (fun () ->
      (* Crash strictly between the 5th and 6th iteration. *)
      Engine.sleep (Time_ns.ns 5_500);
      Fabric.crash a);
  Engine.run eng;
  check_int "fiber stopped at crash" 5 !steps;
  check_bool "dead" false (Fabric.is_alive a)

let test_fabric_recover_wipes () =
  let _, _, a, _ = make_pair () in
  let r = Fabric.alloc_region a ~size:8 in
  Memory.set_i64 r ~off:0 7L;
  Fabric.crash a;
  Fabric.recover a;
  check_bool "alive again" true (Fabric.is_alive a);
  Alcotest.(check int64) "memory wiped" 0L (Memory.get_i64 r ~off:0)

let test_fabric_recover_no_wipe () =
  let _, _, a, _ = make_pair () in
  let r = Fabric.alloc_region a ~size:8 in
  Memory.set_i64 r ~off:0 7L;
  Fabric.crash a;
  Fabric.recover ~wipe:false a;
  Alcotest.(check int64) "memory kept" 7L (Memory.get_i64 r ~off:0)

(* {1 Qp verbs} *)

let test_qp_read_write () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:64 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  let got = ref Bytes.empty in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      Qp.write qp addr (Bytes.of_string "remote!");
      got := Qp.read qp addr ~len:7);
  Engine.run eng;
  check_bytes "write then read back" (Bytes.of_string "remote!") !got

let test_qp_latency_accounting () =
  (* A verb costs post + base + size/bandwidth; two verbs on one QP
     serialize (RC ordering). *)
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:2048 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  let t_one = ref 0 and t_two = ref 0 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      Qp.write qp addr (Bytes.create 1000);
      t_one := Engine.self_now ();
      Qp.write qp addr (Bytes.create 1000);
      t_two := Engine.self_now ());
  Engine.run eng;
  let p = Profile.default in
  let expect_one = p.Profile.post_ns + Profile.verb_latency p ~bytes_len:1000 in
  check_int "single verb" expect_one !t_one;
  check_bool "second verb after first" true (!t_two >= 2 * Profile.verb_latency p ~bytes_len:1000)

let test_qp_rc_in_order () =
  (* Posted writes on one QP land in post order even when sizes differ. *)
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8192 in
  let nid = Fabric.node_id b in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      let big = Bytes.make 4096 'A' in
      Qp.write_post qp (Memory.addr ~node:nid r ~off:0) big;
      Qp.write_post qp (Memory.addr ~node:nid r ~off:0) (Bytes.of_string "B"));
  Engine.run eng;
  check_bytes "small write landed last" (Bytes.of_string "BA")
    (Memory.read_bytes r ~off:0 ~len:2)

let test_qp_write_post_returns_fast () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:64 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  let after_post = ref 0 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      Qp.write_post qp addr (Bytes.of_string "x");
      after_post := Engine.self_now ());
  Engine.run eng;
  check_int "only post cost charged" Profile.default.Profile.post_ns !after_post;
  check_bytes "payload landed" (Bytes.of_string "x") (Memory.read_bytes r ~off:0 ~len:1)

let test_qp_mem_signal_on_remote_write () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  let woken_at = ref (-1) in
  Fabric.spawn_on b (fun () ->
      Signal.wait_until (Fabric.mem_signal b) (fun () ->
          not (Int64.equal (Memory.get_i64 r ~off:0) 0L));
      woken_at := Engine.self_now ());
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      Qp.write_i64 qp addr 5L);
  Engine.run eng;
  check_bool "poller woken when write landed" true (!woken_at > 0)

let test_qp_read_dead_peer () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  let result = ref `Pending in
  let failed_at = ref 0 in
  Fabric.crash b;
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      (try ignore (Qp.read qp addr ~len:8)
       with Qp.Rdma_exception { verb = "read"; _ } -> result := `Failed);
      failed_at := Engine.self_now ());
  Engine.run eng;
  check_bool "read failed" true (!result = `Failed);
  check_bool "failure took the transport timeout" true
    (!failed_at >= Profile.default.Profile.failure_timeout_ns)

let test_qp_write_post_to_dead_peer_dropped () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  Fabric.crash b;
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      Qp.write_post qp addr (Bytes.of_string "x"));
  Engine.run eng;
  Alcotest.(check int64) "nothing landed" 0L (Memory.get_i64 r ~off:0)

let test_qp_cas () =
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  Memory.set_i64 r ~off:0 10L;
  let first = ref (-1L) and second = ref (-1L) in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      first := Qp.cas qp addr ~expected:10L ~desired:20L;
      second := Qp.cas qp addr ~expected:10L ~desired:30L);
  Engine.run eng;
  Alcotest.(check int64) "first cas sees old" 10L !first;
  Alcotest.(check int64) "second cas fails" 20L !second;
  Alcotest.(check int64) "value is from first cas" 20L (Memory.get_i64 r ~off:0)

let test_qp_payload_snapshot () =
  (* Mutating the caller's buffer after posting must not change what
     lands remotely. *)
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:8 in
  let addr = Memory.addr ~node:(Fabric.node_id b) r ~off:0 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      let payload = Bytes.of_string "old" in
      Qp.write_post qp addr payload;
      Bytes.blit_string "new" 0 payload 0 3);
  Engine.run eng;
  check_bytes "snapshot at post time" (Bytes.of_string "old")
    (Memory.read_bytes r ~off:0 ~len:3)

let test_qp_shared_between_fibers () =
  (* Two fibers posting on one QP: RC keeps their writes ordered and
     both complete. *)
  let eng, _, a, b = make_pair () in
  let r = Fabric.alloc_region b ~size:16 in
  let nid = Fabric.node_id b in
  let qp = ref None in
  Fabric.spawn_on a (fun () -> qp := Some (Qp.connect ~src:a ~dst:b));
  Engine.run eng;
  let qp = Option.get !qp in
  let done_count = ref 0 in
  for i = 0 to 1 do
    Fabric.spawn_on a (fun () ->
        Qp.write qp (Memory.addr ~node:nid r ~off:(8 * i)) (Bytes.make 8 (Char.chr (65 + i)));
        incr done_count)
  done;
  Engine.run eng;
  check_int "both writes completed" 2 !done_count;
  check_bytes "first landed" (Bytes.make 8 'A') (Memory.read_bytes r ~off:0 ~len:8);
  check_bytes "second landed" (Bytes.make 8 'B') (Memory.read_bytes r ~off:8 ~len:8)

let test_profile_verb_latency () =
  let p = Profile.default in
  check_int "zero payload" p.Profile.verb_ns (Profile.verb_latency p ~bytes_len:0);
  check_int "1KB at 25Gbps" (p.Profile.verb_ns + 320) (Profile.verb_latency p ~bytes_len:1000)

(* {1 Doorbell batching} *)

(* A fresh fabric with its own registry so metric assertions are not
   polluted by other tests. *)
let make_metered ?(profile = Profile.default) () =
  let eng = Engine.create () in
  let reg = Heron_obs.Metrics.create () in
  let fab = Fabric.create ~metrics:reg eng ~profile in
  let a = Fabric.add_node fab ~name:"a" in
  let b = Fabric.add_node fab ~name:"b" in
  (eng, reg, fab, a, b)

let counter_of reg ?labels name =
  match Heron_obs.Metrics.find (Heron_obs.Metrics.snapshot reg) ?labels name with
  | Some (Heron_obs.Metrics.Counter_v n) -> n
  | Some _ -> Alcotest.failf "%s: not a counter" name
  | None -> 0

(* Ring one doorbell over [writes], all on the same QP. *)
let ring_one_qp qp writes =
  let batch = Qp.Doorbell.create () in
  List.iter (fun (addr, payload) -> Qp.Doorbell.add batch qp addr payload) writes;
  Qp.Doorbell.ring batch

let test_doorbell_one_qp () =
  (* n WQEs under one coalesce group: the poster pays post_ns once plus
     doorbell_ns per further WQE; every WQE still pays full RC-ordered
     wire latency, so the last landing is n verb latencies out. *)
  let eng, reg, _, a, b = make_metered () in
  let p = Profile.default in
  let r = Fabric.alloc_region b ~size:64 in
  let nid = Fabric.node_id b in
  let after_post = ref 0 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      ring_one_qp qp
        (List.init 5 (fun i ->
             (Memory.addr ~node:nid r ~off:(8 * i), Bytes.make 8 (Char.chr (65 + i)))));
      after_post := Engine.self_now ());
  Engine.run eng;
  check_int "one doorbell + 4 chained WQEs"
    (p.Profile.post_ns + (4 * p.Profile.doorbell_ns))
    !after_post;
  for i = 0 to 4 do
    check_bytes "payload landed"
      (Bytes.make 8 (Char.chr (65 + i)))
      (Memory.read_bytes r ~off:(8 * i) ~len:8)
  done;
  check_int "one write_post charge"
    1
    (counter_of reg "rdma.verb.count" ~labels:[ ("verb", "write_post"); ("src", "a"); ("dst", "b") ]);
  check_int "per-WQE bytes"
    40
    (counter_of reg "rdma.verb.bytes" ~labels:[ ("verb", "write_post"); ("src", "a"); ("dst", "b") ]);
  check_int "rings" 1 (counter_of reg "rdma.doorbell.rings");
  check_int "wqes" 5 (counter_of reg "rdma.doorbell.wqes");
  check_int "coalesced" 4 (counter_of reg "rdma.doorbell.coalesced")

let test_doorbell_coalesce_split () =
  (* post_coalesce caps WQEs per doorbell: 5 WQEs at 2 per ring cost 3
     doorbells and 2 chained posts. *)
  let profile = { Profile.default with Profile.post_coalesce = 2 } in
  let eng, reg, _, a, b = make_metered ~profile () in
  let r = Fabric.alloc_region b ~size:64 in
  let nid = Fabric.node_id b in
  let after_post = ref 0 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      ring_one_qp qp
        (List.init 5 (fun i -> (Memory.addr ~node:nid r ~off:(8 * i), Bytes.make 8 'x')));
      after_post := Engine.self_now ());
  Engine.run eng;
  check_int "3 doorbells + 2 chained WQEs"
    ((3 * profile.Profile.post_ns) + (2 * profile.Profile.doorbell_ns))
    !after_post;
  check_int "write_post counts doorbells"
    3
    (counter_of reg "rdma.verb.count" ~labels:[ ("verb", "write_post"); ("src", "a"); ("dst", "b") ]);
  check_int "rings" 3 (counter_of reg "rdma.doorbell.rings");
  check_int "wqes" 5 (counter_of reg "rdma.doorbell.wqes");
  check_int "coalesced" 2 (counter_of reg "rdma.doorbell.coalesced")

let test_doorbell_rc_order_and_latency () =
  (* WQEs in one batch serialize on the QP: k-th completion is k verb
     latencies after the (single) post charge. *)
  let eng, _, _, a, b = make_metered () in
  let p = Profile.default in
  let r = Fabric.alloc_region b ~size:8 in
  let nid = Fabric.node_id b in
  let landings = ref [] in
  Fabric.spawn_on b (fun () ->
      let last = ref 0L in
      for _ = 1 to 3 do
        Signal.wait_until (Fabric.mem_signal b) (fun () ->
            not (Int64.equal (Memory.get_i64 r ~off:0) !last));
        last := Memory.get_i64 r ~off:0;
        landings := Engine.self_now () :: !landings
      done);
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      ring_one_qp qp
        (List.init 3 (fun i ->
             let payload = Bytes.create 8 in
             Bytes.set_int64_le payload 0 (Int64.of_int (i + 1));
             (Memory.addr ~node:nid r ~off:0, payload))));
  Engine.run eng;
  let cpu = p.Profile.post_ns + (2 * p.Profile.doorbell_ns) in
  let lat = Profile.verb_latency p ~bytes_len:8 in
  Alcotest.(check (list int))
    "in-order landings, one verb latency apart"
    [ cpu + lat; cpu + (2 * lat); cpu + (3 * lat) ]
    (List.rev !landings)

let test_doorbell_cross_qp () =
  (* One ring covering QPs to two peers: single doorbell charge, both
     wires run concurrently (per-QP busy_until), and a dead peer only
     drops its own WQE. *)
  let eng, reg, fab, a, b = make_metered () in
  let c = Fabric.add_node fab ~name:"c" in
  let p = Profile.default in
  let rb = Fabric.alloc_region b ~size:8 in
  let rc = Fabric.alloc_region c ~size:8 in
  let after_ring = ref 0 in
  Fabric.crash c;
  Fabric.spawn_on a (fun () ->
      let qb = Qp.connect ~src:a ~dst:b in
      let qc = Qp.connect ~src:a ~dst:c in
      let batch = Qp.Doorbell.create () in
      Qp.Doorbell.add batch qb (Memory.addr ~node:(Fabric.node_id b) rb ~off:0)
        (Bytes.of_string "to-b!");
      Qp.Doorbell.add batch qc (Memory.addr ~node:(Fabric.node_id c) rc ~off:0)
        (Bytes.of_string "to-c!");
      check_int "batch length" 2 (Qp.Doorbell.length batch);
      Qp.Doorbell.ring batch;
      check_int "drained" 0 (Qp.Doorbell.length batch);
      after_ring := Engine.self_now ());
  Engine.run eng;
  check_int "one doorbell for both peers"
    (p.Profile.post_ns + p.Profile.doorbell_ns)
    !after_ring;
  check_bytes "live peer got its write" (Bytes.of_string "to-b!")
    (Memory.read_bytes rb ~off:0 ~len:5);
  Alcotest.(check int64) "dead peer untouched" 0L (Memory.get_i64 rc ~off:0);
  check_int "drop counted on the dead QP"
    1
    (counter_of reg "rdma.dropped_writes" ~labels:[ ("src", "a"); ("dst", "c") ]);
  check_int "rings" 1 (counter_of reg "rdma.doorbell.rings");
  check_int "wqes" 2 (counter_of reg "rdma.doorbell.wqes")

let test_doorbell_payload_snapshot () =
  (* Payloads are snapshotted when the doorbell rings, so the caller's
     buffer can be reused afterwards. *)
  let eng, _, _, a, b = make_metered () in
  let r = Fabric.alloc_region b ~size:8 in
  Fabric.spawn_on a (fun () ->
      let qp = Qp.connect ~src:a ~dst:b in
      let batch = Qp.Doorbell.create () in
      let payload = Bytes.of_string "old" in
      Qp.Doorbell.add batch qp (Memory.addr ~node:(Fabric.node_id b) r ~off:0) payload;
      Qp.Doorbell.ring batch;
      Bytes.blit_string "new" 0 payload 0 3);
  Engine.run eng;
  check_bytes "snapshot at ring time" (Bytes.of_string "old")
    (Memory.read_bytes r ~off:0 ~len:3)

let test_doorbell_empty () =
  let eng, reg, _, a, _ = make_metered () in
  let moved = ref false in
  Fabric.spawn_on a (fun () ->
      Qp.Doorbell.ring (Qp.Doorbell.create ());
      moved := Engine.self_now () > 0);
  Engine.run eng;
  check_bool "empty batches are free" false !moved;
  check_int "no rings" 0 (counter_of reg "rdma.doorbell.rings")

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "rdma.memory",
      [
        tc "read/write roundtrip" test_memory_rw;
        tc "bounds checking" test_memory_bounds;
        tc "int64 accessors" test_memory_i64;
        tc "wipe" test_memory_wipe;
        tc "addresses" test_memory_addr;
      ] );
    ( "rdma.fabric",
      [
        tc "node registry" test_fabric_nodes;
        tc "local read/write" test_fabric_local_rw;
        tc "local access checks node" test_fabric_local_wrong_node;
        tc "crash cancels fibers" test_fabric_crash_cancels_fibers;
        tc "recover wipes memory" test_fabric_recover_wipes;
        tc "recover can keep memory" test_fabric_recover_no_wipe;
      ] );
    ( "rdma.qp",
      [
        tc "write then read" test_qp_read_write;
        tc "latency accounting" test_qp_latency_accounting;
        tc "RC in-order delivery" test_qp_rc_in_order;
        tc "write_post returns fast" test_qp_write_post_returns_fast;
        tc "memory signal on remote write" test_qp_mem_signal_on_remote_write;
        tc "read from dead peer fails" test_qp_read_dead_peer;
        tc "posted write to dead peer dropped" test_qp_write_post_to_dead_peer_dropped;
        tc "compare-and-swap" test_qp_cas;
        tc "payload snapshot semantics" test_qp_payload_snapshot;
        tc "QP shared between fibers" test_qp_shared_between_fibers;
        tc "profile latency formula" test_profile_verb_latency;
      ] );
    ( "rdma.doorbell",
      [
        tc "one-QP batch single doorbell" test_doorbell_one_qp;
        tc "coalesce split" test_doorbell_coalesce_split;
        tc "RC order within a batch" test_doorbell_rc_order_and_latency;
        tc "cross-QP batch" test_doorbell_cross_qp;
        tc "payload snapshot at ring" test_doorbell_payload_snapshot;
        tc "empty batches" test_doorbell_empty;
      ] );
  ]

let () = Alcotest.run "heron_rdma" suite
