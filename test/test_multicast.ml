(* Tests for heron_multicast: the timestamped atomic multicast.

   The qcheck properties check the Section II-B guarantees on random
   workloads: integrity, validity/uniform agreement (failure-free),
   per-process timestamp monotonicity (which, with unique timestamps,
   implies uniform prefix order and acyclic order), and timestamp
   consistency across processes. *)

open Heron_sim
open Heron_rdma
open Heron_multicast

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Tstamp} *)

let test_tstamp_order () =
  let a = Tstamp.make ~clock:1 ~uid:5 in
  let b = Tstamp.make ~clock:2 ~uid:1 in
  let c = Tstamp.make ~clock:1 ~uid:6 in
  check_bool "clock dominates" true Tstamp.(a < b);
  check_bool "uid tie-break" true Tstamp.(a < c);
  check_bool "zero smallest" true Tstamp.(zero < a);
  check_bool "equal" true (Tstamp.equal a (Tstamp.make ~clock:1 ~uid:5))

let test_tstamp_int64_roundtrip () =
  let t = Tstamp.make ~clock:123_456 ~uid:789 in
  check_bool "roundtrip" true (Tstamp.equal t (Tstamp.of_int64 (Tstamp.to_int64 t)))

let tstamp_pack_order_prop =
  QCheck.Test.make ~name:"tstamp int64 order matches compare" ~count:500
    QCheck.(
      let clock = oneof [ int_bound 1_000_000; int_bound ((1 lsl 39) - 1) ] in
      quad clock (int_bound 8_000_000) clock (int_bound 8_000_000))
    (fun (c1, u1, c2, u2) ->
      let a = Tstamp.make ~clock:c1 ~uid:u1 in
      let b = Tstamp.make ~clock:c2 ~uid:u2 in
      Stdlib.compare (Tstamp.to_int64 a) (Tstamp.to_int64 b) = Tstamp.compare a b
      && Int.compare (Tstamp.to_int a) (Tstamp.to_int b) = Tstamp.compare a b)

let test_tstamp_out_of_range () =
  Alcotest.check_raises "uid too large"
    (Invalid_argument "Tstamp.to_int64: uid out of range") (fun () ->
      ignore (Tstamp.to_int64 (Tstamp.make ~clock:0 ~uid:(1 lsl 23))));
  Alcotest.check_raises "clock too large"
    (Invalid_argument "Tstamp.to_int64: clock out of range") (fun () ->
      ignore (Tstamp.to_int64 (Tstamp.make ~clock:(1 lsl 39) ~uid:0)))

(* {1 Multicast harness}

   [run_workload] builds [n_groups] groups of [n_replicas] and
   [n_clients] clients, submits the given (client, dst) list, runs the
   sim, and returns per-member delivery sequences. *)

type world = {
  eng : Engine.t;
  fab : Fabric.t;
  sys : string Ramcast.t;
  deliveries : string Ramcast.delivery list ref array array;
  nodes : Fabric.node array array;
  clients : Fabric.node array;
}

let make_world ?(config = Ramcast.default_config) ?(seed = 1) ~n_groups ~n_replicas
    ~n_clients () =
  let eng = Engine.create ~seed () in
  (* Each world counts into its own registry. *)
  let fab =
    Fabric.create ~metrics:(Heron_obs.Metrics.create ()) eng ~profile:Profile.default
  in
  let nodes =
    Array.init n_groups (fun g ->
        Array.init n_replicas (fun i ->
            Fabric.add_node fab ~name:(Printf.sprintf "g%d-r%d" g i)))
  in
  let clients =
    Array.init n_clients (fun i -> Fabric.add_node fab ~name:(Printf.sprintf "c%d" i))
  in
  let sys =
    Ramcast.create ~config fab ~size_of:String.length ~groups:nodes
  in
  let deliveries =
    Array.init n_groups (fun _ -> Array.init n_replicas (fun _ -> ref []))
  in
  for g = 0 to n_groups - 1 do
    for i = 0 to n_replicas - 1 do
      let cell = deliveries.(g).(i) in
      Ramcast.set_deliver sys ~gid:g ~idx:i (fun d -> cell := d :: !cell)
    done
  done;
  Ramcast.start sys;
  { eng; fab; sys; deliveries; nodes; clients }

let submit_all w msgs =
  (* [msgs]: (client idx, dst list, payload) triples; each client sends
     its messages in order, spaced a little apart. *)
  Array.iteri
    (fun ci client ->
      let mine = List.filter (fun (c, _, _) -> c = ci) msgs in
      Fabric.spawn_on client (fun () ->
          List.iter
            (fun (_, dst, payload) ->
              ignore (Ramcast.multicast w.sys ~from:client ~dst payload);
              Engine.sleep (Time_ns.us 2))
            mine))
    w.clients

let seq w g i = List.rev !(w.deliveries.(g).(i))

(* Property checks shared by unit and qcheck tests; raise Failure with
   a description when violated. *)
let check_properties w ~n_groups ~n_replicas ~(sent : (int list * string) list) =
  (* Integrity: delivered only to destinations, at most once, only sent
     messages. *)
  for g = 0 to n_groups - 1 do
    for i = 0 to n_replicas - 1 do
      let s = seq w g i in
      List.iter
        (fun (d : string Ramcast.delivery) ->
          if not (List.mem g d.Ramcast.d_dst) then
            failwith "integrity: delivered to non-destination")
        s;
      let uids = List.map (fun d -> d.Ramcast.d_uid) s in
      if List.length (List.sort_uniq compare uids) <> List.length uids then
        failwith "integrity: duplicate delivery"
    done
  done;
  (* Validity + uniform agreement (failure-free runs): every member of
     every destination group delivered every message. *)
  let total_sent = List.length sent in
  List.iteri
    (fun idx (dst, payload) ->
      ignore idx;
      List.iter
        (fun g ->
          for i = 0 to n_replicas - 1 do
            let s = seq w g i in
            if
              not
                (List.exists
                   (fun (d : string Ramcast.delivery) ->
                     d.Ramcast.d_payload = payload && d.Ramcast.d_dst = dst)
                   s)
            then
              failwith
                (Printf.sprintf "validity: g%d/r%d missed a message (of %d)" g i
                   total_sent)
          done)
        dst)
    sent;
  (* Monotonicity: every member's delivery sequence has strictly
     increasing timestamps; with agreement on timestamps this implies
     uniform prefix order and acyclic order. *)
  let tmp_of_uid = Hashtbl.create 64 in
  for g = 0 to n_groups - 1 do
    for i = 0 to n_replicas - 1 do
      let s = seq w g i in
      let rec mono = function
        | a :: (b :: _ as rest) ->
            if not Tstamp.(a.Ramcast.d_tmp < b.Ramcast.d_tmp) then
              failwith "order: timestamps not strictly increasing";
            mono rest
        | [ _ ] | [] -> ()
      in
      mono s;
      List.iter
        (fun (d : string Ramcast.delivery) ->
          match Hashtbl.find_opt tmp_of_uid d.Ramcast.d_uid with
          | None -> Hashtbl.replace tmp_of_uid d.Ramcast.d_uid d.Ramcast.d_tmp
          | Some t ->
              if not (Tstamp.equal t d.Ramcast.d_tmp) then
                failwith "order: same message, different timestamps")
        s
    done
  done

(* Control traffic on one directed link, read from the world's
   registry: transfers and their bytes. From a group's leader to a
   follower that is one proposal stash per message, plus one log write
   and one commit notice per group of entries decided together. *)
let link_transfers w ~src ~dst =
  let snap = Heron_obs.Metrics.snapshot (Fabric.metrics w.fab) in
  let labels =
    [ ("verb", "transfer");
      ("src", Fabric.node_name src);
      ("dst", Fabric.node_name dst) ]
  in
  let get name =
    match Heron_obs.Metrics.find snap ~labels name with
    | Some (Heron_obs.Metrics.Counter_v v) -> v
    | Some _ | None -> 0
  in
  (get "rdma.verb.count", get "rdma.verb.bytes")

(* {1 Unit tests} *)

let test_single_group_delivery () =
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  submit_all w [ (0, [ 0 ], "a"); (0, [ 0 ], "b"); (0, [ 0 ], "c") ];
  Engine.run_until w.eng (Time_ns.ms 5);
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d order" i)
      [ "a"; "b"; "c" ]
      (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 i))
  done;
  check_properties w ~n_groups:1 ~n_replicas:3
    ~sent:[ ([ 0 ], "a"); ([ 0 ], "b"); ([ 0 ], "c") ]

let test_multi_group_same_order () =
  let w = make_world ~n_groups:3 ~n_replicas:3 ~n_clients:2 () in
  let msgs =
    [
      (0, [ 0; 1 ], "m1");
      (1, [ 1; 2 ], "m2");
      (0, [ 0; 1; 2 ], "m3");
      (1, [ 0; 2 ], "m4");
      (0, [ 1 ], "m5");
    ]
  in
  submit_all w msgs;
  Engine.run_until w.eng (Time_ns.ms 10);
  check_properties w ~n_groups:3 ~n_replicas:3
    ~sent:(List.map (fun (_, d, p) -> (d, p)) msgs);
  (* Messages m1 and m3 share groups 0 and 1: all six replicas must
     order them the same way. *)
  let order g i =
    List.filter_map
      (fun (d : string Ramcast.delivery) ->
        if d.Ramcast.d_payload = "m1" || d.Ramcast.d_payload = "m3" then
          Some d.Ramcast.d_payload
        else None)
      (seq w g i)
  in
  let reference = order 0 0 in
  check_int "both present" 2 (List.length reference);
  for g = 0 to 1 do
    for i = 0 to 2 do
      Alcotest.(check (list string)) "same relative order" reference (order g i)
    done
  done

let test_delivery_latency_single_group () =
  (* One message to one group of 3: delivery at the leader should take
     a handful of microseconds (submit + replicate + ack). *)
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  let delivered_at = ref 0 in
  Ramcast.set_deliver w.sys ~gid:0 ~idx:0 (fun _ -> delivered_at := Engine.now w.eng);
  Fabric.spawn_on w.clients.(0) (fun () ->
      ignore (Ramcast.multicast w.sys ~from:w.clients.(0) ~dst:[ 0 ] "x"));
  Engine.run_until w.eng (Time_ns.ms 1);
  check_bool "delivered" true (!delivered_at > 0);
  check_bool "microsecond scale" true (!delivered_at < Time_ns.us 15)

let test_group_of_one () =
  let w = make_world ~n_groups:2 ~n_replicas:1 ~n_clients:1 () in
  submit_all w [ (0, [ 0; 1 ], "a"); (0, [ 1 ], "b") ];
  Engine.run_until w.eng (Time_ns.ms 5);
  check_properties w ~n_groups:2 ~n_replicas:1
    ~sent:[ ([ 0; 1 ], "a"); ([ 1 ], "b") ]

let test_dst_normalized () =
  let w = make_world ~n_groups:2 ~n_replicas:1 ~n_clients:1 () in
  Fabric.spawn_on w.clients.(0) (fun () ->
      ignore (Ramcast.multicast w.sys ~from:w.clients.(0) ~dst:[ 1; 0; 1 ] "dup"));
  Engine.run_until w.eng (Time_ns.ms 5);
  List.iter
    (fun g ->
      let s = seq w g 0 in
      check_int "one delivery" 1 (List.length s);
      Alcotest.(check (list int)) "sorted dedup dst" [ 0; 1 ]
        (List.hd s).Ramcast.d_dst)
    [ 0; 1 ]

let test_empty_dst_rejected () =
  let w = make_world ~n_groups:1 ~n_replicas:1 ~n_clients:1 () in
  let raised = ref false in
  Fabric.spawn_on w.clients.(0) (fun () ->
      try ignore (Ramcast.multicast w.sys ~from:w.clients.(0) ~dst:[] "x")
      with Invalid_argument _ -> raised := true);
  Engine.run_until w.eng (Time_ns.ms 1);
  check_bool "rejected" true !raised

let test_even_group_rejected () =
  let eng = Engine.create () in
  let fab = Fabric.create eng ~profile:Profile.default in
  let nodes = Array.init 2 (fun i -> Fabric.add_node fab ~name:(string_of_int i)) in
  check_bool "even size rejected" true
    (try
       ignore (Ramcast.create fab ~size_of:String.length ~groups:[| nodes |]);
       false
     with Invalid_argument _ -> true)

(* {1 Failure tests} *)

let test_follower_failure () =
  (* With one dead follower (f = 1, n = 3) messages still flow. *)
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  Fabric.crash w.nodes.(0).(2);
  submit_all w [ (0, [ 0 ], "a"); (0, [ 0 ], "b") ];
  Engine.run_until w.eng (Time_ns.ms 5);
  Alcotest.(check (list string))
    "leader delivered" [ "a"; "b" ]
    (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 0));
  Alcotest.(check (list string))
    "live follower delivered" [ "a"; "b" ]
    (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 1))

let test_leader_failover () =
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  let client = w.clients.(0) in
  Fabric.spawn_on client (fun () ->
      ignore (Ramcast.multicast w.sys ~from:client ~dst:[ 0 ] "before");
      Engine.sleep (Time_ns.ms 1);
      Fabric.crash w.nodes.(0).(0);
      (* Wait past the liveness check period, then submit again; the
         multicast call itself retries through the leader change. *)
      Engine.sleep (Time_ns.ms 1);
      ignore (Ramcast.multicast w.sys ~from:client ~dst:[ 0 ] "after"));
  Engine.run_until w.eng (Time_ns.ms 20);
  check_int "replica 1 took over" 1 (Ramcast.leader_idx w.sys ~gid:0);
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d delivered both" i)
        [ "before"; "after" ]
        (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 i)))
    [ 1; 2 ]

let test_leader_failover_multi_group () =
  (* A message spanning two groups is submitted after group 0's leader
     died: the takeover must let cross-group agreement finish. *)
  let w = make_world ~n_groups:2 ~n_replicas:3 ~n_clients:1 () in
  let client = w.clients.(0) in
  Fabric.spawn_on client (fun () ->
      ignore (Ramcast.multicast w.sys ~from:client ~dst:[ 0; 1 ] "m1");
      Engine.sleep (Time_ns.ms 1);
      Fabric.crash w.nodes.(0).(0);
      Engine.sleep (Time_ns.ms 1);
      ignore (Ramcast.multicast w.sys ~from:client ~dst:[ 0; 1 ] "m2"));
  Engine.run_until w.eng (Time_ns.ms 20);
  List.iter
    (fun (g, i) ->
      Alcotest.(check (list string))
        (Printf.sprintf "g%d/r%d got both" g i)
        [ "m1"; "m2" ]
        (List.map (fun d -> d.Ramcast.d_payload) (seq w g i)))
    [ (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ]

let test_leader_failover_batch_in_flight () =
  (* The leader crashes while a three-entry write is in flight to the
     follower that takes over, after the other follower stored it:
     takeover must sync the whole batch from its peer and deliver it
     in order. Group 1's proposal to group 0's leader is slowed so m1
     (to both groups) is final only after m2 and m3 (group 0 only)
     are, and the three then dispatch together. *)
  let w = make_world ~n_groups:2 ~n_replicas:3 ~n_clients:3 () in
  let id g i = Fabric.node_id w.nodes.(g).(i) in
  Fabric.set_link_fault w.fab ~src:(id 1 0) ~dst:(id 0 0) ~extra_ns:(Time_ns.us 300) ();
  Fabric.set_link_fault w.fab ~src:(id 0 0) ~dst:(id 0 1) ~extra_ns:(Time_ns.ms 1) ();
  let send ci ~after dst p =
    Fabric.spawn_on w.clients.(ci) (fun () ->
        Engine.sleep after;
        ignore (Ramcast.multicast w.sys ~from:w.clients.(ci) ~dst p))
  in
  send 0 ~after:0 [ 0; 1 ] "m1";
  send 1 ~after:(Time_ns.us 20) [ 0 ] "m2";
  send 2 ~after:(Time_ns.us 40) [ 0 ] "m3";
  let retained_at_crash = ref (-1, -1) in
  Engine.schedule ~delay:(Time_ns.us 600) w.eng (fun () ->
      let retained idx = Ramcast.log_retained w.sys ~gid:0 ~idx in
      retained_at_crash := (retained 1, retained 2);
      Fabric.crash w.nodes.(0).(0));
  send 0 ~after:(Time_ns.ms 2) [ 0; 1 ] "after";
  Engine.run_until w.eng (Time_ns.ms 20);
  Alcotest.(check (pair int int)) "batch only at replica 2 when the leader died" (0, 3)
    !retained_at_crash;
  check_int "three stashes, one log write, one commit notice to replica 2" 5
    (fst (link_transfers w ~src:w.nodes.(0).(0) ~dst:w.nodes.(0).(2)));
  check_int "replica 1 took over" 1 (Ramcast.leader_idx w.sys ~gid:0);
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "g0/r%d order" i)
        [ "m1"; "m2"; "m3"; "after" ]
        (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 i)))
    [ 1; 2 ];
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "g1/r%d order" i)
      [ "m1"; "after" ]
      (List.map (fun d -> d.Ramcast.d_payload) (seq w 1 i))
  done

let test_restart_with_commit_in_flight () =
  (* A follower rejoins while the leader's commit of "x" is short of a
     majority: replica 2 is down and the write to replica 1 is slowed
     by 1 ms. The rejoiner copies "x" from the leader's log but must
     deliver it only on the commit notice; its own ack is what lets the
     leader commit, long before replica 1's write lands. *)
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  let id i = Fabric.node_id w.nodes.(0).(i) in
  Fabric.crash w.nodes.(0).(2);
  Fabric.set_link_fault w.fab ~src:(id 0) ~dst:(id 1) ~extra_ns:(Time_ns.ms 1) ();
  submit_all w [ (0, [ 0 ], "x") ];
  let rejoined = ref [] in
  let at_restart = ref (-1) in
  Engine.schedule ~delay:(Time_ns.us 100) w.eng (fun () ->
      Fabric.recover w.nodes.(0).(2);
      Ramcast.restart_member w.sys ~gid:0 ~idx:2 ~deliver:(fun d ->
          rejoined := (d.Ramcast.d_payload, Engine.now w.eng) :: !rejoined);
      at_restart := List.length !rejoined);
  Engine.run_until w.eng (Time_ns.us 500);
  check_int "nothing delivered at the rejoin" 0 !at_restart;
  Alcotest.(check (list string))
    "leader committed on the rejoiner's ack" [ "x" ]
    (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 0));
  (match !rejoined with
  | [ ("x", t) ] -> check_bool "rejoiner delivered after the rejoin" true (t > Time_ns.us 100)
  | _ -> Alcotest.fail "rejoiner did not deliver x exactly once");
  check_int "replica 1 has not stored x yet" 0 (Ramcast.log_retained w.sys ~gid:0 ~idx:1);
  Engine.run_until w.eng (Time_ns.ms 5);
  Alcotest.(check (list string))
    "replica 1 delivers x too" [ "x" ]
    (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 1))

let test_late_submit_after_reclaim () =
  (* The client's submits reach replica 1 1 ms late, so replica 1
     stores "x" from the leader's log write long before x's own Submit
     lands, and by then the log is reclaimed past "x". The late Submit
     must still be recognized as seen: stashed instead, it would be
     re-proposed, and delivered a second time, when replica 1 takes over
     from the crashed leader. A run of one message never reclaims, so
     it cannot tell. *)
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  let client = w.clients.(0) in
  Fabric.set_link_fault w.fab ~src:(Fabric.node_id client)
    ~dst:(Fabric.node_id w.nodes.(0).(1)) ~extra_ns:(Time_ns.ms 1) ();
  let payloads = "x" :: List.init 40 (Printf.sprintf "m%d") in
  submit_all w (List.map (fun p -> (0, [ 0 ], p)) payloads);
  let reclaimed_past_x = ref [] in
  Engine.schedule ~delay:(Time_ns.us 900) w.eng (fun () ->
      reclaimed_past_x :=
        List.map
          (fun idx ->
            Ramcast.delivered_count w.sys ~gid:0 ~idx
            > Ramcast.log_retained w.sys ~gid:0 ~idx)
          [ 0; 1; 2 ]);
  Engine.schedule ~delay:(Time_ns.ms 3) w.eng (fun () -> Fabric.crash w.nodes.(0).(0));
  Engine.run_until w.eng (Time_ns.ms 20);
  Alcotest.(check (list bool))
    "log reclaimed past x before its late submit lands" [ true; true; true ]
    !reclaimed_past_x;
  check_int "replica 1 took over" 1 (Ramcast.leader_idx w.sys ~gid:0);
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d delivers each message once" i)
        payloads
        (List.map (fun d -> d.Ramcast.d_payload) (seq w 0 i)))
    [ 1; 2 ]

(* The seen-uid set costs one bit per issued uid. 4,000 uids fill 500
   of the bitmap's 512 bytes (it grows by doubling); the constant covers
   the record and block headers. A per-uid hash table would take about
   40 bytes per uid here. *)
let test_seen_set_footprint () =
  let n_clients = 4 and per_client = 1_000 in
  let n = n_clients * per_client in
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients () in
  submit_all w
    (List.concat
       (List.init n_clients (fun c ->
            List.init per_client (fun k -> (c, [ 0 ], Printf.sprintf "c%d-%d" c k)))));
  Engine.run_until w.eng (Time_ns.ms 200);
  for idx = 0 to 2 do
    check_int (Printf.sprintf "replica %d delivered all" idx) n
      (Ramcast.delivered_count w.sys ~gid:0 ~idx);
    let bytes = Ramcast.seen_bytes w.sys ~gid:0 ~idx in
    if bytes > (n / 8) + 64 then
      Alcotest.failf "replica %d's seen set takes %d bytes after %d uids (max %d)" idx
        bytes n
        ((n / 8) + 64)
  done

(* {1 Replication writes} *)

let test_lone_entry_no_batch_header () =
  (* One client multicasting sequentially: each message is decided
     alone, so its log write costs exactly the entry, with no batch
     header. *)
  let w = make_world ~n_groups:1 ~n_replicas:3 ~n_clients:1 () in
  let payloads = [ "a"; "bb"; "cccc"; "dddddddd" ] in
  submit_all w (List.map (fun p -> (0, [ 0 ], p)) payloads);
  Engine.run_until w.eng (Time_ns.ms 5);
  let cfg = Ramcast.default_config in
  let per_message p =
    cfg.Ramcast.propose_bytes
    + (String.length p + cfg.Ramcast.entry_hdr_bytes)
    + (8 + 8)
  in
  for i = 1 to 2 do
    let count, bytes = link_transfers w ~src:w.nodes.(0).(0) ~dst:w.nodes.(0).(i) in
    check_int (Printf.sprintf "transfers to r%d" i) (3 * List.length payloads) count;
    check_int (Printf.sprintf "bytes to r%d" i)
      (List.fold_left (fun acc p -> acc + per_message p) 0 payloads)
      bytes
  done;
  check_properties w ~n_groups:1 ~n_replicas:3
    ~sent:(List.map (fun p -> ([ 0 ], p)) payloads)

let test_concurrent_entries_share_writes () =
  (* Many clients at once, to group 0, to group 1 and to both: an
     entry whose final timestamp waits on the other group holds back
     the entries decided behind it, which then travel in one write. *)
  let n_clients = 9 and per_client = 5 in
  let w = make_world ~n_groups:2 ~n_replicas:3 ~n_clients () in
  let dsts = [| [ 0 ]; [ 1 ]; [ 0; 1 ] |] in
  let msgs =
    List.concat
      (List.init n_clients (fun c ->
           List.init per_client (fun k ->
               (c, dsts.((c + k) mod 3), Printf.sprintf "c%d-%d" c k))))
  in
  submit_all w msgs;
  Engine.run_until w.eng (Time_ns.ms 20);
  check_properties w ~n_groups:2 ~n_replicas:3
    ~sent:(List.map (fun (_, d, p) -> (d, p)) msgs);
  for g = 0 to 1 do
    let entries = List.length (List.filter (fun (_, d, _) -> List.mem g d) msgs) in
    check_int (Printf.sprintf "g%d delivered" g) entries
      (Ramcast.delivered_count w.sys ~gid:g ~idx:0);
    let count, _ = link_transfers w ~src:w.nodes.(g).(0) ~dst:w.nodes.(g).(1) in
    let log_writes = (count - entries) / 2 in
    check_bool
      (Printf.sprintf "g%d: %d log writes for %d entries" g log_writes entries)
      true
      (log_writes > 0 && log_writes < entries)
  done

(* {1 Property-based ordering tests} *)

let workload_gen =
  (* (n_groups, messages as (client, dst-mask, payload-index)) *)
  QCheck.Gen.(
    let* n_groups = int_range 1 3 in
    let* n_msgs = int_range 1 25 in
    let* masks =
      list_repeat n_msgs (int_range 1 ((1 lsl n_groups) - 1))
    in
    let* clients = list_repeat n_msgs (int_range 0 2) in
    return (n_groups, List.combine clients masks))

let dst_of_mask n_groups mask =
  List.filter (fun g -> mask land (1 lsl g) <> 0) (List.init n_groups Fun.id)

let mcast_props_prop =
  QCheck.Test.make ~name:"multicast ordering properties (random workloads)"
    ~count:40
    (QCheck.make workload_gen)
    (fun (n_groups, msgs) ->
      let w = make_world ~n_groups ~n_replicas:3 ~n_clients:3 () in
      let triples =
        List.mapi
          (fun i (c, mask) ->
            (c, dst_of_mask n_groups mask, Printf.sprintf "p%d" i))
          msgs
      in
      submit_all w triples;
      Engine.run_until w.eng (Time_ns.ms 50);
      check_properties w ~n_groups ~n_replicas:3
        ~sent:(List.map (fun (_, d, p) -> (d, p)) triples);
      true)

let mcast_follower_crash_prop =
  (* One follower per group is dead from the start: survivors must
     still satisfy integrity, per-process monotonicity and timestamp
     agreement (validity restricted to live members). *)
  QCheck.Test.make ~name:"multicast properties with one dead follower per group"
    ~count:15
    (QCheck.make workload_gen)
    (fun (n_groups, msgs) ->
      let w = make_world ~n_groups ~n_replicas:3 ~n_clients:3 () in
      for g = 0 to n_groups - 1 do
        Fabric.crash w.nodes.(g).(2)
      done;
      let triples =
        List.mapi
          (fun i (c, mask) -> (c, dst_of_mask n_groups mask, Printf.sprintf "p%d" i))
          msgs
      in
      submit_all w triples;
      Engine.run_until w.eng (Time_ns.ms 50);
      (* Check on survivors only. *)
      let tmp_of_uid = Hashtbl.create 64 in
      for g = 0 to n_groups - 1 do
        for i = 0 to 1 do
          let s = seq w g i in
          let rec mono = function
            | a :: (b :: _ as rest) ->
                if not Tstamp.(a.Ramcast.d_tmp < b.Ramcast.d_tmp) then
                  failwith "order: not increasing";
                mono rest
            | [ _ ] | [] -> ()
          in
          mono s;
          List.iter
            (fun (d : string Ramcast.delivery) ->
              if not (List.mem g d.Ramcast.d_dst) then failwith "integrity: wrong group";
              match Hashtbl.find_opt tmp_of_uid d.Ramcast.d_uid with
              | None -> Hashtbl.replace tmp_of_uid d.Ramcast.d_uid d.Ramcast.d_tmp
              | Some t ->
                  if not (Tstamp.equal t d.Ramcast.d_tmp) then
                    failwith "order: timestamp disagreement")
            s
        done;
        (* Live members of the same group delivered the same sequence. *)
        let payloads i = List.map (fun d -> d.Ramcast.d_payload) (seq w g i) in
        if payloads 0 <> payloads 1 then failwith "agreement: sequences differ"
      done;
      (* Every message was delivered by its destination groups'
         survivors (validity with f = 1). *)
      List.iter
        (fun (_, dst, p) ->
          List.iter
            (fun g ->
              if not (List.exists (fun d -> d.Ramcast.d_payload = p) (seq w g 0)) then
                failwith "validity: lost message")
            dst)
        triples;
      true)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "multicast.tstamp",
      [
        tc "ordering" test_tstamp_order;
        tc "int64 roundtrip" test_tstamp_int64_roundtrip;
        tc "out of range" test_tstamp_out_of_range;
        Qc.test tstamp_pack_order_prop;
      ] );
    ( "multicast.delivery",
      [
        tc "single group total order" test_single_group_delivery;
        tc "multi-group consistent order" test_multi_group_same_order;
        tc "delivery latency" test_delivery_latency_single_group;
        tc "groups of one" test_group_of_one;
        tc "dst normalized" test_dst_normalized;
        tc "empty dst rejected" test_empty_dst_rejected;
        tc "even group rejected" test_even_group_rejected;
      ] );
    ( "multicast.failures",
      [
        tc "follower failure" test_follower_failure;
        tc "leader failover" test_leader_failover;
        tc "leader failover multi-group" test_leader_failover_multi_group;
        tc "leader failover, batch in flight" test_leader_failover_batch_in_flight;
        tc "restart, commit in flight" test_restart_with_commit_in_flight;
        tc "late submit of a reclaimed uid" test_late_submit_after_reclaim;
      ] );
    ("multicast.memory", [ tc "seen set: one bit per uid" test_seen_set_footprint ]);
    ( "multicast.writes",
      [
        tc "lone entry, no batch header" test_lone_entry_no_batch_header;
        tc "concurrent entries share writes" test_concurrent_entries_share_writes;
      ] );
    ( "multicast.properties",
      [
        Qc.test mcast_props_prop;
        Qc.test mcast_follower_crash_prop;
      ] );
  ]

let () = Alcotest.run "heron_multicast" suite
