(* Tests for the linearizability checker, and the headline use: checking
   real Heron histories (paper Section III-C) against a sequential model
   of the KV application. *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv
open Heron_lincheck

let check_bool = Alcotest.(check bool)

(* {1 A single int register} *)

type reg_op = R_read | R_write of int

let reg_spec : (reg_op, int, int) Lincheck.spec =
  {
    Lincheck.initial = 0;
    apply =
      (fun s -> function R_read -> (s, s) | R_write v -> (v, 0));
    equal_result = Int.equal;
  }

let ev client op result invoke return_ =
  { Lincheck.ev_client = client; ev_op = op; ev_result = result;
    ev_invoke = invoke; ev_return = return_ }

let test_reg_sequential () =
  check_bool "read own write" true
    (Lincheck.check reg_spec
       [ ev 0 (R_write 5) 0 0 10; ev 0 R_read 5 20 30 ]);
  check_bool "stale read rejected" false
    (Lincheck.check reg_spec
       [ ev 0 (R_write 5) 0 0 10; ev 0 R_read 0 20 30 ])

let test_reg_concurrent_overlap () =
  (* A read overlapping a write may see either value... *)
  check_bool "old value ok" true
    (Lincheck.check reg_spec [ ev 0 (R_write 7) 0 0 100; ev 1 R_read 0 50 60 ]);
  check_bool "new value ok" true
    (Lincheck.check reg_spec [ ev 0 (R_write 7) 0 0 100; ev 1 R_read 7 50 60 ]);
  (* ... but two sequential reads cannot travel backwards in time. *)
  check_bool "new-then-old rejected" false
    (Lincheck.check reg_spec
       [
         ev 0 (R_write 7) 0 0 100;
         ev 1 R_read 7 10 20;
         ev 1 R_read 0 30 40;
       ])

let test_reg_real_time_order () =
  (* w=1 returns before w=2 starts; a later read must not see 1. *)
  check_bool "real-time order respected" false
    (Lincheck.check reg_spec
       [
         ev 0 (R_write 1) 0 0 10;
         ev 0 (R_write 2) 0 20 30;
         ev 1 R_read 1 40 50;
       ]);
  check_bool "seeing 2 is fine" true
    (Lincheck.check reg_spec
       [
         ev 0 (R_write 1) 0 0 10;
         ev 0 (R_write 2) 0 20 30;
         ev 1 R_read 2 40 50;
       ])

let test_empty_history () = check_bool "empty" true (Lincheck.check reg_spec [])

let test_bad_interval_rejected () =
  Alcotest.check_raises "return before invoke"
    (Invalid_argument "Lincheck.check: event returns before it is invoked")
    (fun () -> ignore (Lincheck.check reg_spec [ ev 0 R_read 0 10 5 ]))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_counterexample_message_shape () =
  (* The failure report must carry the shortest failing prefix — and
     only it: everything after the violating event is noise a developer
     should never have to read. *)
  let pp_op ppf = function
    | R_read -> Format.fprintf ppf "read"
    | R_write v -> Format.fprintf ppf "write %d" v
  in
  let pp_result = Format.pp_print_int in
  let history =
    [
      ev 0 (R_write 5) 0 0 10;
      ev 1 R_read 7 20 30;  (* impossible: nobody wrote 7 *)
      ev 0 R_read 5 40 50;
      ev 1 R_read 5 60 70;
    ]
  in
  match Lincheck.counterexample_free ~pp_op ~pp_result reg_spec history with
  | Ok () -> Alcotest.fail "impossible history accepted"
  | Error msg ->
      check_bool "reports the prefix length" true
        (contains ~needle:"shortest failing prefix: 2 events" msg);
      check_bool "lists the write" true
        (contains ~needle:"client 0 [0, 10] write 5" msg);
      check_bool "lists the violating read with its result" true
        (contains ~needle:"client 1 [20, 30] read -> 7" msg);
      check_bool "omits events after the violation" false
        (contains ~needle:"[40, 50]" msg || contains ~needle:"[60, 70]" msg)

let test_counterexample_free_accepts () =
  match
    Lincheck.counterexample_free reg_spec [ ev 0 (R_write 3) 0 0 10; ev 0 R_read 3 20 30 ]
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Sequential histories generated from the spec are always accepted. *)
let reg_sequential_prop =
  QCheck.Test.make ~name:"generated sequential histories linearize" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (option (int_bound 100)))
    (fun ops ->
      let _, _, events =
        List.fold_left
          (fun (state, t, acc) op ->
            let op = match op with Some v -> R_write v | None -> R_read in
            let state', res = reg_spec.Lincheck.apply state op in
            (state', t + 2, ev 0 op res t (t + 1) :: acc))
          (0, 0, []) ops
      in
      Lincheck.check reg_spec (List.rev events))

(* {1 The KV application model} *)

let kv_apply state req =
  let get k = List.nth state k in
  let set k v = List.mapi (fun i x -> if i = k then v else x) state in
  match req with
  | Kv_app.Get k -> (state, Kv_app.Value (get k))
  | Kv_app.Put (k, v) -> (set k v, Kv_app.Ack)
  | Kv_app.Add (k, d) ->
      let v = Int64.add (get k) d in
      (set k v, Kv_app.Value v)
  | Kv_app.Transfer { src; dst; amount } ->
      let s = set src (Int64.sub (get src) amount) in
      let s = List.mapi (fun i x -> if i = dst then Int64.add (List.nth state dst) amount else x) s in
      (s, Kv_app.Ack)
  | Kv_app.Incr_all ks ->
      (List.mapi (fun i x -> if List.mem i ks then Int64.add x 1L else x) state, Kv_app.Ack)
  | Kv_app.Read_all ks -> (state, Kv_app.Values (List.map (fun k -> (k, get k)) ks))

let kv_spec ~keys ~init : (Kv_app.req, Kv_app.resp, int64 list) Lincheck.spec =
  {
    Lincheck.initial = List.init keys (fun _ -> init);
    apply = kv_apply;
    equal_result = ( = );
  }

(* Run concurrent clients against a real deployment and record the
   history each observed. *)
let record_heron_history ?(tweak = fun c -> c) ~seed ~keys ~partitions ~clients
    ~ops_per_client ~gen_op () =
  let eng = Engine.create ~seed () in
  let cfg = tweak (Config.default ~partitions ~replicas:3) in
  let sys = System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init:0L) in
  System.start sys;
  let events = ref [] in
  for c = 0 to clients - 1 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "c%d" c) in
    let rng = Random.State.make [| seed; c |] in
    Fabric.spawn_on node (fun () ->
        for _ = 1 to ops_per_client do
          let op = gen_op rng in
          let t0 = Engine.self_now () in
          let resps = System.submit sys ~from:node op in
          let t1 = Engine.self_now () in
          events :=
            {
              Lincheck.ev_client = c;
              ev_op = op;
              ev_result = snd (List.hd resps);
              ev_invoke = t0;
              ev_return = t1;
            }
            :: !events
        done)
  done;
  Engine.run_until eng (Time_ns.s 10);
  Alcotest.(check int) "all clients finished" (clients * ops_per_client)
    (List.length !events);
  List.rev !events

let mixed_op ~keys rng =
  match Random.State.int rng 5 with
  | 0 -> Kv_app.Put (Random.State.int rng keys, Int64.of_int (Random.State.int rng 100))
  | 1 -> Kv_app.Get (Random.State.int rng keys)
  | 2 -> Kv_app.Add (Random.State.int rng keys, 1L)
  | 3 -> Kv_app.Incr_all [ 0; 1 ]
  | _ -> Kv_app.Read_all [ 0; 1 ]

let test_heron_history_linearizable () =
  let keys = 4 in
  let events =
    record_heron_history ~seed:31 ~keys ~partitions:2 ~clients:4 ~ops_per_client:12
      ~gen_op:(mixed_op ~keys) ()
  in
  match Lincheck.counterexample_free (kv_spec ~keys ~init:0L) events with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let heron_linearizable_prop =
  QCheck.Test.make ~name:"heron KV histories linearize (random seeds)" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let keys = 3 in
      let events =
        record_heron_history ~seed ~keys ~partitions:3 ~clients:3 ~ops_per_client:10
          ~gen_op:(mixed_op ~keys) ()
      in
      Lincheck.check (kv_spec ~keys ~init:0L) events)

let test_corrupted_history_rejected () =
  (* Inject an impossible observation into a real history: a Get
     returning a value nobody ever wrote. *)
  let keys = 4 in
  let events =
    record_heron_history ~seed:33 ~keys ~partitions:2 ~clients:3 ~ops_per_client:8
      ~gen_op:(mixed_op ~keys) ()
  in
  let t = (List.nth events (List.length events - 1)).Lincheck.ev_return in
  let poison =
    {
      Lincheck.ev_client = 99;
      ev_op = Kv_app.Get 0;
      ev_result = Kv_app.Value 123_456_789L;
      ev_invoke = t + 1;
      ev_return = t + 2;
    }
  in
  check_bool "poisoned history rejected" false
    (Lincheck.check (kv_spec ~keys ~init:0L) (events @ [ poison ]))

let test_pipeline_onoff_linearizable () =
  (* The compartmentalized pipeline (batcher + executor pool +
     coordination writer, DESIGN.md §12) must not change correctness:
     the same mixed workload linearizes with pipelining on and off, and
     every client op completes in both runs. A small batch size and a
     short flush timeout force real batches at this op rate. *)
  let keys = 4 in
  let pipe_on c =
    {
      c with
      Config.pipeline =
        {
          Config.pipe_enabled = true;
          pipe_batch_size = 4;
          pipe_flush_timeout_ns = 10_000;
          pipe_executors = 4;
        };
    }
  in
  let run tweak =
    record_heron_history ~seed:43 ~keys ~partitions:2 ~clients:4 ~ops_per_client:10
      ~tweak ~gen_op:(mixed_op ~keys) ()
  in
  let on_ = run pipe_on and off = run (fun c -> c) in
  check_bool "pipeline on linearizes" true (Lincheck.check (kv_spec ~keys ~init:0L) on_);
  check_bool "pipeline off linearizes" true (Lincheck.check (kv_spec ~keys ~init:0L) off);
  Alcotest.(check int) "same op count" (List.length off) (List.length on_)

let pipeline_linearizable_prop =
  QCheck.Test.make ~name:"pipelined KV histories linearize (random seeds)"
    ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let keys = 3 in
      let events =
        record_heron_history ~seed ~keys ~partitions:2 ~clients:3 ~ops_per_client:10
          ~tweak:(fun c ->
            {
              c with
              Config.pipeline =
                {
                  Config.default_pipeline with
                  Config.pipe_enabled = true;
                  pipe_batch_size = 3;
                  pipe_flush_timeout_ns = 8_000;
                };
            })
          ~gen_op:(mixed_op ~keys) ()
      in
      Lincheck.check (kv_spec ~keys ~init:0L) events)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "lincheck.register",
      [
        tc "sequential" test_reg_sequential;
        tc "concurrent overlap" test_reg_concurrent_overlap;
        tc "real-time order" test_reg_real_time_order;
        tc "empty history" test_empty_history;
        tc "bad interval rejected" test_bad_interval_rejected;
        tc "counterexample message shape" test_counterexample_message_shape;
        tc "counterexample_free accepts good histories" test_counterexample_free_accepts;
        Qc.test reg_sequential_prop;
      ] );
    ( "lincheck.heron",
      [
        tc "mixed KV history is linearizable" test_heron_history_linearizable;
        tc "corrupted history rejected" test_corrupted_history_rejected;
        tc "pipeline on/off verdicts agree" test_pipeline_onoff_linearizable;
        Qc.test heron_linearizable_prop;
        Qc.test pipeline_linearizable_prop;
      ] );
  ]

let () = Alcotest.run "heron_lincheck" suite
