(* Tests for heron_obs: metric registry, JSON, Perfetto export. *)

open Heron_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* {1 Histogram buckets} *)

let test_bucket_small_exact () =
  (* Values 0..15 are their own bucket, exactly. *)
  for v = 0 to 15 do
    check_int "index" v (Metrics.bucket_of v);
    check_int "upper" v (Metrics.bucket_upper v)
  done

let test_bucket_boundaries () =
  (* First bucketed power of two: 16 and 17 are still exact... *)
  check_int "16" 16 (Metrics.bucket_of 16);
  check_int "upper16" 16 (Metrics.bucket_upper 16);
  check_int "17" 17 (Metrics.bucket_of 17);
  (* ...32 starts the two-wide buckets: 32 and 33 share a bucket. *)
  check_int "32/33 same" (Metrics.bucket_of 32) (Metrics.bucket_of 33);
  check_bool "33/34 differ" false (Metrics.bucket_of 33 = Metrics.bucket_of 34);
  check_int "upper of 32" 33 (Metrics.bucket_upper (Metrics.bucket_of 32))

let test_bucket_roundtrip_and_error () =
  (* bucket_upper (bucket_of v) >= v with relative error <= 1/16, and
     bucket_of is monotone. *)
  let vs =
    List.concat_map
      (fun k ->
        let b = 1 lsl k in
        [ b - 1; b; b + 1; b + (b / 3); (2 * b) - 1 ])
      [ 4; 5; 8; 13; 20; 30; 40; 50; 61 ]
  in
  List.iter
    (fun v ->
      let u = Metrics.bucket_upper (Metrics.bucket_of v) in
      check_bool (Printf.sprintf "upper>=v for %d" v) true (u >= v);
      check_bool
        (Printf.sprintf "error<=1/16 for %d" v)
        true
        (float_of_int (u - v) <= float_of_int v /. 16.))
    vs;
  let rec mono = function
    | a :: (b :: _ as rest) ->
        check_bool "monotone" true (Metrics.bucket_of a <= Metrics.bucket_of b);
        mono rest
    | _ -> ()
  in
  mono (List.sort compare vs);
  check_int "negative clamps" 0 (Metrics.bucket_of (-5))

(* {1 Percentile agreement with Sample_set} *)

let test_percentile_agreement () =
  (* On identical samples, the histogram percentile lands in the same
     bucket as the exact Sample_set percentile: the histogram only
     blurs within a bucket, never across ranks. *)
  let rng = Random.State.make [| 0xbeef |] in
  for case = 1 to 20 do
    let n = 1 + Random.State.int rng 500 in
    let samples =
      List.init n (fun _ ->
          match Random.State.int rng 3 with
          | 0 -> Random.State.int rng 16
          | 1 -> Random.State.int rng 4096
          | _ -> Random.State.int rng 100_000_000)
    in
    let reg = Metrics.create () in
    let h = Metrics.histogram reg "t.h" in
    let s = Heron_stats.Sample_set.create () in
    List.iter
      (fun v ->
        Metrics.observe h v;
        Heron_stats.Sample_set.add s v)
      samples;
    List.iter
      (fun p ->
        let exact = Heron_stats.Sample_set.percentile s p in
        let approx = Metrics.hist_percentile h p in
        check_int
          (Printf.sprintf "case %d p%.0f (n=%d)" case p n)
          (Metrics.bucket_of exact) (Metrics.bucket_of approx))
      [ 0.; 50.; 90.; 99.; 100. ]
  done

let test_histogram_stats () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "t.lat" in
  check_int "empty count" 0 (Metrics.hist_count h);
  check_int "empty percentile" 0 (Metrics.hist_percentile h 99.);
  List.iter (Metrics.observe h) [ 5; 10; 15 ];
  check_int "count" 3 (Metrics.hist_count h);
  check_int "sum" 30 (Metrics.hist_sum h);
  check_int "max" 15 (Metrics.hist_max h);
  check_int "p50 exact below 16" 10 (Metrics.hist_percentile h 50.);
  Metrics.observe h (-3);
  check_int "negative clamps to 0" 0 (Metrics.hist_percentile h 1.)

(* {1 Counters, labels, registry identity} *)

let test_label_merging () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg ~labels:[ ("src", "n0"); ("dst", "n1") ] "rdma.x" in
  let b = Metrics.counter reg ~labels:[ ("dst", "n1"); ("src", "n0") ] "rdma.x" in
  Metrics.incr a;
  Metrics.add b 2;
  (* Same identity regardless of label order: both handles feed one
     series. *)
  check_int "merged" 3 (Metrics.counter_value a);
  check_int "merged b" 3 (Metrics.counter_value b);
  let c = Metrics.counter reg ~labels:[ ("src", "n0"); ("dst", "n2") ] "rdma.x" in
  Metrics.incr c;
  check_int "distinct labels distinct" 1 (Metrics.counter_value c);
  check_int "a unchanged" 3 (Metrics.counter_value a)

let test_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "m");
  check_bool "kind mismatch raises" true
    (try
       ignore (Metrics.histogram reg "m");
       false
     with Invalid_argument _ -> true)

let test_snapshot_diff () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  let g = Metrics.gauge reg "g" in
  let h = Metrics.histogram reg "h" in
  Metrics.add c 5;
  Metrics.set_gauge g 7;
  Metrics.observe h 100;
  let before = Metrics.snapshot reg in
  Metrics.add c 3;
  Metrics.set_gauge g 9;
  Metrics.observe h 200;
  Metrics.observe h 300;
  let after = Metrics.snapshot reg in
  let d = Metrics.diff ~before ~after in
  (match Metrics.find d "c" with
  | Some (Metrics.Counter_v v) -> check_int "counter delta" 3 v
  | _ -> Alcotest.fail "counter missing from diff");
  (match Metrics.find d "g" with
  | Some (Metrics.Gauge_v v) -> check_int "gauge is after-value" 9 v
  | _ -> Alcotest.fail "gauge missing from diff");
  match Metrics.find d "h" with
  | Some (Metrics.Histogram_v hs) ->
      check_int "hist count delta" 2 hs.Metrics.hs_count;
      check_int "hist sum delta" 500 hs.Metrics.hs_sum
  | _ -> Alcotest.fail "histogram missing from diff"

(* {1 Merging reads} *)

(* Samples spread over histograms and counters labelled by a 3x3 grid
   of (part, idx); a filter fixes neither, one or both. The filtered
   read must equal one histogram that took every matching sample, and
   the counters' sum. *)
let find_merges_prop =
  let slot = QCheck.int_bound 2 in
  let value = QCheck.oneof [ QCheck.int_bound 15; QCheck.int_bound 1_000_000_000 ] in
  QCheck.Test.make ~name:"find merges the series a filter matches" ~count:200
    QCheck.(pair (small_list (triple slot slot value)) (pair (option slot) (option slot)))
    (fun (samples, (fpart, fidx)) ->
      let labels p i = [ ("part", string_of_int p); ("idx", string_of_int i) ] in
      let reg = Metrics.create () and whole = Metrics.create () in
      for p = 0 to 2 do
        for i = 0 to 2 do
          ignore (Metrics.histogram reg ~labels:(labels p i) "h");
          ignore (Metrics.counter reg ~labels:(labels p i) "c")
        done
      done;
      let all = Metrics.histogram whole "all" and total = ref 0 in
      let matches p i =
        Option.fold ~none:true ~some:(( = ) p) fpart
        && Option.fold ~none:true ~some:(( = ) i) fidx
      in
      List.iter
        (fun (p, i, v) ->
          Metrics.observe (Metrics.histogram reg ~labels:(labels p i) "h") v;
          Metrics.add (Metrics.counter reg ~labels:(labels p i) "c") v;
          if matches p i then begin
            Metrics.observe all v;
            total := !total + v
          end)
        samples;
      let filter =
        List.filter_map Fun.id
          [
            Option.map (fun p -> ("part", string_of_int p)) fpart;
            Option.map (fun i -> ("idx", string_of_int i)) fidx;
          ]
      in
      let snap = Metrics.snapshot reg in
      let exact_unchanged =
        List.for_all
          (fun e -> Metrics.find snap ~labels:e.Metrics.e_labels e.Metrics.e_name = Some e.e_value)
          snap
      in
      Metrics.find snap ~labels:filter "h" = Metrics.find (Metrics.snapshot whole) "all"
      && Metrics.find snap ~labels:filter "c" = Some (Metrics.Counter_v !total)
      && exact_unchanged)

let test_find_gauges_do_not_merge () =
  let reg = Metrics.create () in
  Metrics.set_gauge (Metrics.gauge reg ~labels:[ ("part", "0") ] "g") 1;
  Metrics.set_gauge (Metrics.gauge reg ~labels:[ ("part", "1") ] "g") 2;
  let snap = Metrics.snapshot reg in
  (match Metrics.find snap ~labels:[ ("part", "1") ] "g" with
  | Some (Metrics.Gauge_v v) -> check_int "one gauge reads as is" 2 v
  | _ -> Alcotest.fail "gauge missing");
  check_bool "two matching gauges raise" true
    (try
       ignore (Metrics.find snap "g");
       false
     with Invalid_argument _ -> true)

(* {1 JSON} *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("s", Json.String "he said \"hi\"\n\t\\");
      ]
  in
  let s = Json.to_string doc in
  check_bool "roundtrip" true (Json.parse_exn s = doc);
  (* Escapes and unicode. *)
  check_bool "unicode escape" true
    (Json.parse_exn "\"\\u00e9A\"" = Json.String "\xc3\xa9A");
  (match Json.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted"

let test_metrics_json_export () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg ~labels:[ ("k", "v") ] "c") 4;
  Metrics.observe (Metrics.histogram reg "h_ns") 1000;
  let doc = Metrics.to_json (Metrics.snapshot reg) in
  let reparsed = Json.parse_exn (Json.to_string doc) in
  let ms =
    match Json.member "metrics" reparsed with
    | Some l -> Json.to_list_exn l
    | None -> Alcotest.fail "no metrics field"
  in
  check_int "two series" 2 (List.length ms);
  let names =
    List.filter_map
      (fun m ->
        match Json.member "name" m with Some (Json.String s) -> Some s | _ -> None)
      ms
  in
  check_bool "counter present" true (List.mem "c" names);
  check_bool "histogram present" true (List.mem "h_ns" names)

(* {1 Perfetto export} *)

(* One request: p0/r0 orders and executes it before the reply, the
   multicast commits it (no replica attributes: requests process only),
   and p0/r1 finishes ordering after the reply (an after-reply span). *)
let golden_trees () =
  let col = Reqtrace.create () in
  let trace, root = Reqtrace.start_trace col ~attrs:[ ("client", "c") ] ~now:0 () in
  let at_replica idx = [ ("part", "0"); ("idx", string_of_int idx) ] in
  ignore
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"ordering" ~attrs:(at_replica 0)
       ~start:0 2_000);
  ignore
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"mcast.commit"
       ~attrs:[ ("gid", "0") ] ~start:100 1_500);
  ignore
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"execute" ~attrs:(at_replica 0)
       ~start:2_000 2_500);
  Reqtrace.finish col ~trace ~now:3_000;
  ignore
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"ordering" ~attrs:(at_replica 1)
       ~start:500 3_200);
  Reqtrace.export_trees col

let perfetto_string trees = Json.to_string (Trace_export.perfetto trees)

let golden =
  String.concat ""
    [
      {|{"traceEvents":[|};
      {|{"name":"process_name","ph":"M","pid":1,"args":{"name":"replica p0/r0"}},|};
      {|{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"ordering"}},|};
      {|{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"execute"}},|};
      {|{"name":"ordering","ph":"X","pid":1,"tid":1,"ts":0.0,"dur":2.0,"args":{"trace":1,"part":"0","idx":"0"}},|};
      {|{"name":"execute","ph":"X","pid":1,"tid":2,"ts":2.0,"dur":0.5,"args":{"trace":1,"part":"0","idx":"0"}},|};
      {|{"name":"process_name","ph":"M","pid":2,"args":{"name":"replica p0/r1"}},|};
      {|{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"ordering"}},|};
      {|{"name":"ordering","ph":"X","pid":2,"tid":1,"ts":0.5,"dur":2.7,"args":{"trace":1,"after_reply":true,"part":"0","idx":"1"}},|};
      {|{"name":"process_name","ph":"M","pid":1000,"args":{"name":"requests"}},|};
      {|{"name":"thread_name","ph":"M","pid":1000,"tid":1,"args":{"name":"req 1"}},|};
      {|{"name":"request","ph":"X","pid":1000,"tid":1,"ts":0.0,"dur":3.0,"args":{"trace":1,"span":2,"parent":0,"start_ns":0,"end_ns":3000,"client":"c"}},|};
      {|{"name":"ordering","ph":"X","pid":1000,"tid":1,"ts":0.0,"dur":2.0,"args":{"trace":1,"span":3,"parent":2,"start_ns":0,"end_ns":2000,"part":"0","idx":"0"}},|};
      {|{"name":"mcast.commit","ph":"X","pid":1000,"tid":1,"ts":0.1,"dur":1.4,"args":{"trace":1,"span":4,"parent":2,"start_ns":100,"end_ns":1500,"gid":"0"}},|};
      {|{"name":"execute","ph":"X","pid":1000,"tid":1,"ts":2.0,"dur":0.5,"args":{"trace":1,"span":5,"parent":2,"start_ns":2000,"end_ns":2500,"part":"0","idx":"0"}}|};
      {|],"displayTimeUnit":"ns"}|};
    ]

let test_perfetto_golden () =
  check_string "golden document" golden (perfetto_string (golden_trees ()))

let test_perfetto_structure () =
  (* The export is valid JSON with correctly nested spans: every X
     event's (pid, tid) pair was declared by metadata, and spans from
     both replicas and the requests process are present. *)
  let s = perfetto_string (golden_trees ()) in
  let doc = Json.parse_exn s in
  let events =
    match Json.member "traceEvents" doc with
    | Some l -> Json.to_list_exn l
    | None -> Alcotest.fail "no traceEvents"
  in
  let field name e =
    match Json.member name e with Some v -> v | None -> Alcotest.fail ("no " ^ name)
  in
  let declared = Hashtbl.create 8 in
  let x_pids = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match field "ph" e with
      | Json.String "M" -> (
          match (field "name" e, field "pid" e) with
          | Json.String "thread_name", Json.Int pid ->
              Hashtbl.replace declared (pid, field "tid" e) ()
          | _ -> ())
      | Json.String "X" ->
          let pid = field "pid" e in
          (match pid with Json.Int p -> Hashtbl.replace x_pids p () | _ -> ());
          check_bool "track declared" true
            (Hashtbl.mem declared
               ((match pid with Json.Int p -> p | _ -> -1), field "tid" e));
          (* Durations are non-negative. *)
          (match field "dur" e with
          | Json.Float d -> check_bool "dur >= 0" true (d >= 0.)
          | Json.Int d -> check_bool "dur >= 0" true (d >= 0)
          | _ -> Alcotest.fail "bad dur")
      | _ -> Alcotest.fail "unknown phase")
    events;
  check_bool "spans from 2 replicas and the requests" true (Hashtbl.length x_pids = 3)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick test_bucket_small_exact;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "roundtrip + error bound" `Quick
            test_bucket_roundtrip_and_error;
          Alcotest.test_case "percentile agreement" `Quick test_percentile_agreement;
          Alcotest.test_case "stats" `Quick test_histogram_stats;
        ] );
      ( "registry",
        [
          Alcotest.test_case "label merging" `Quick test_label_merging;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Qc.test find_merges_prop;
          Alcotest.test_case "gauges do not merge" `Quick test_find_gauges_do_not_merge;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "metrics export" `Quick test_metrics_json_export;
        ] );
      ( "trace",
        [
          Alcotest.test_case "perfetto golden" `Quick test_perfetto_golden;
          Alcotest.test_case "perfetto structure" `Quick test_perfetto_structure;
        ] );
    ]
