(* Request-scoped causal tracing (DESIGN.md §11): critical-path
   extraction over handcrafted span DAGs, the exact-attribution
   property, the collector's ring/exemplar/metrics plumbing and
   after-reply spans, and the Perfetto dump: replica lanes plus the
   request roundtrip used by [probe explain]. *)

open Heron_obs
open Heron_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let span ?(trace = 1) ?(attrs = []) ~id ~parent ~stage start stop =
  {
    Reqtrace.rs_trace = trace;
    rs_id = id;
    rs_parent = parent;
    rs_stage = stage;
    rs_start = start;
    rs_end = stop;
    rs_attrs = attrs;
  }

let seg_triples segs =
  List.map
    (fun s -> (s.Reqtrace.sg_span.Reqtrace.rs_stage, s.Reqtrace.sg_from, s.Reqtrace.sg_until))
    segs

let sum_segs segs =
  List.fold_left (fun acc s -> acc + (s.Reqtrace.sg_until - s.Reqtrace.sg_from)) 0 segs

(* {1 Handcrafted DAGs} *)

let test_fanout_join () =
  (* Two overlapping children fanning out of the root and joining back:
     the later-finishing child owns the overlap, gaps belong to the
     root. *)
  let spans =
    [
      span ~id:1 ~parent:0 ~stage:"request" 0 100;
      span ~id:2 ~parent:1 ~stage:"a" 10 40;
      span ~id:3 ~parent:1 ~stage:"b" 20 60;
    ]
  in
  match Reqtrace.nest spans with
  | None -> Alcotest.fail "no tree"
  | Some node ->
      let segs = Reqtrace.critical_segments node in
      Alcotest.(check (list (triple string int int)))
        "segments"
        [
          ("request", 0, 10); ("a", 10, 20); ("b", 20, 60); ("request", 60, 100);
        ]
        (seg_triples segs);
      check_int "exact partition" 100 (sum_segs segs);
      Alcotest.(check (list (pair string int)))
        "breakdown largest first"
        [ ("request", 50); ("b", 40); ("a", 10) ]
        (Reqtrace.breakdown segs)

let test_overlapping_siblings_nested () =
  (* A sibling wholly contained in another sibling's interval re-nests
     under it (the multicast layer only knows the root id), and then
     owns its slice of the covering span's critical path. *)
  let spans =
    [
      span ~id:1 ~parent:0 ~stage:"request" 0 100;
      span ~id:2 ~parent:1 ~stage:"ordering" 10 80;
      span ~id:3 ~parent:1 ~stage:"mcast.commit" 30 70;
    ]
  in
  match Reqtrace.nest spans with
  | None -> Alcotest.fail "no tree"
  | Some node ->
      (match node.Reqtrace.n_children with
      | [ o ] ->
          check_int "commit nested under ordering" 1
            (List.length o.Reqtrace.n_children)
      | _ -> Alcotest.fail "expected one direct child");
      let segs = Reqtrace.critical_segments node in
      Alcotest.(check (list (triple string int int)))
        "segments"
        [
          ("request", 0, 10);
          ("ordering", 10, 30);
          ("mcast.commit", 30, 70);
          ("ordering", 70, 80);
          ("request", 80, 100);
        ]
        (seg_triples segs);
      check_int "exact partition" 100 (sum_segs segs)

let test_truncated_children () =
  (* A span whose parent id is missing from the dump (dropped by the
     span cap, or a truncated file) still attaches to the root; a trace
     with no root at all yields no tree. *)
  let spans =
    [
      span ~id:1 ~parent:0 ~stage:"request" 0 50;
      span ~id:9 ~parent:42 ~stage:"execute" 10 20;
    ]
  in
  (match Reqtrace.nest spans with
  | None -> Alcotest.fail "no tree"
  | Some node ->
      check_int "orphan adopted by root" 1 (List.length node.Reqtrace.n_children);
      let segs = Reqtrace.critical_segments node in
      check_int "exact partition" 50 (sum_segs segs);
      Alcotest.(check (list (pair string int)))
        "orphan still attributed"
        [ ("request", 40); ("execute", 10) ]
        (Reqtrace.breakdown segs));
  check_bool "rootless trace has no tree" true
    (Reqtrace.nest [ span ~id:2 ~parent:7 ~stage:"x" 0 5 ] = None);
  (* Children poking outside the root interval are clipped, never
     counted beyond the root's own duration. *)
  match
    Reqtrace.nest
      [
        span ~id:1 ~parent:0 ~stage:"request" 10 50;
        span ~id:2 ~parent:1 ~stage:"state-transfer" 0 200;
      ]
  with
  | None -> Alcotest.fail "no tree"
  | Some node ->
      let segs = Reqtrace.critical_segments node in
      check_int "clipped to root" 40 (sum_segs segs);
      Alcotest.(check (list (pair string int)))
        "transfer owns the clipped window"
        [ ("state-transfer", 40) ]
        (Reqtrace.breakdown segs)

(* {1 Exact attribution property} *)

(* Random trees: span i's parent is drawn among earlier spans, its
   interval anywhere in [0, 2 * root duration) — including outside the
   root, which clipping must absorb. *)
let gen_case =
  QCheck.Gen.(
    int_range 1 1000 >>= fun dur ->
    list_size (int_range 0 25) (triple (int_range 0 2000) (int_range 0 2000) nat)
    >>= fun raw -> return (dur, raw))

let stages =
  [|
    "ordering"; "mcast.order"; "phase2"; "execute"; "phase4"; "batch.wait";
    "exec.queue";
  |]

let spans_of_case (dur, raw) =
  let root = span ~id:1 ~parent:0 ~stage:"request" 0 dur in
  let rec build i acc = function
    | [] -> List.rev acc
    | (a, b, p) :: rest ->
        let s =
          span ~id:(i + 2)
            ~parent:(1 + (p mod (i + 1)))
            ~stage:stages.(i mod Array.length stages)
            (min a b) (max a b)
        in
        build (i + 1) (s :: acc) rest
  in
  root :: build 0 [] raw

let prop_attribution_exact =
  QCheck.Test.make ~count:300 ~name:"critical path partitions root exactly"
    (QCheck.make gen_case)
    (fun case ->
      let spans = spans_of_case case in
      match Reqtrace.nest spans with
      | None -> false
      | Some node ->
          let root = node.Reqtrace.n_span in
          let segs = Reqtrace.critical_segments node in
          let chronological_disjoint =
            let rec go cursor = function
              | [] -> cursor = root.Reqtrace.rs_end
              | s :: rest ->
                  s.Reqtrace.sg_from = cursor
                  && s.Reqtrace.sg_until > s.Reqtrace.sg_from
                  && go s.Reqtrace.sg_until rest
            in
            go root.Reqtrace.rs_start segs
          in
          let dur = root.Reqtrace.rs_end - root.Reqtrace.rs_start in
          sum_segs segs = dur
          && List.fold_left (fun a (_, ns) -> a + ns) 0 (Reqtrace.breakdown segs)
             = dur
          && chronological_disjoint)

(* {1 Collector} *)

let test_collector_ring_and_metrics () =
  let reg = Metrics.create () in
  let col = Reqtrace.create ~ring:2 ~exemplars:2 () in
  Reqtrace.attach_metrics col reg;
  let finish_one ~dur =
    let trace, root = Reqtrace.start_trace col ~now:0 () in
    ignore
      (Reqtrace.add_span col ~trace ~parent:root ~stage:"execute" ~start:0
         (dur / 2));
    Reqtrace.finish col ~trace ~now:dur;
    trace
  in
  (* The slowest trace finishes first so the ring rotates it out, but
     the exemplar sampler must keep it. *)
  let t1 = finish_one ~dur:300 in
  let _t2 = finish_one ~dur:100 in
  let t3 = finish_one ~dur:200 in
  check_int "finished counts all" 3 (Reqtrace.finished col);
  check_int "ring keeps newest two" 2 (List.length (Reqtrace.completed col));
  check_bool "slowest rotated out of ring" true
    (List.for_all
       (fun t -> t.Reqtrace.tr_trace <> t1)
       (Reqtrace.completed col));
  (match Reqtrace.exemplars col with
  | a :: b :: _ ->
      check_int "slowest first" 300 (Reqtrace.duration a);
      check_int "second slowest" 200 (Reqtrace.duration b)
  | _ -> Alcotest.fail "expected two exemplars");
  check_bool "export keeps rotated exemplar" true
    (List.length (Reqtrace.export_trees col) = 3);
  (* Late span: the trace is finished, so it is counted and gets no id
     (t1 is still an exemplar, so the span is kept after-reply). *)
  check_int "late span refused" 0
    (Reqtrace.add_span col ~trace:t1 ~parent:1 ~stage:"state-transfer" ~start:0
       10);
  check_int "late counter" 1 (Reqtrace.late_spans col);
  ignore t3;
  (* Metrics: e2e histogram saw all three, stage histograms exist. *)
  let snap = Metrics.snapshot reg in
  (match Metrics.find snap "req.e2e_ns" with
  | Some (Metrics.Histogram_v h) -> check_int "e2e count" 3 h.Metrics.hs_count
  | _ -> Alcotest.fail "req.e2e_ns missing");
  (match Metrics.find snap ~labels:[ ("stage", "execute") ] "req.stage_ns" with
  | Some (Metrics.Histogram_v h) ->
      check_int "execute count" 3 h.Metrics.hs_count;
      (* execute owns [0, dur/2) of every request: 50 + 150 + 100. *)
      check_int "execute attributed sum" 300 h.Metrics.hs_sum
  | _ -> Alcotest.fail "req.stage_ns{stage=execute} missing");
  (match Metrics.find snap "req.traces" with
  | Some (Metrics.Counter_v n) -> check_int "trace counter" 3 n
  | _ -> Alcotest.fail "req.traces missing")

let test_collector_span_cap_and_discard () =
  let col = Reqtrace.create ~max_spans:2 () in
  let trace, root = Reqtrace.start_trace col ~now:0 () in
  check_bool "first accepted" true
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"a" ~start:0 1 <> 0);
  check_bool "second accepted" true
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"b" ~start:1 2 <> 0);
  check_int "cap refuses the third" 0
    (Reqtrace.add_span col ~trace ~parent:root ~stage:"c" ~start:2 3);
  check_int "dropped counter" 1 (Reqtrace.dropped_spans col);
  Alcotest.check_raises "backwards span rejected"
    (Invalid_argument "Reqtrace.add_span: span ends before it starts")
    (fun () ->
      ignore (Reqtrace.add_span col ~trace ~parent:root ~stage:"x" ~start:5 4));
  let t2, _ = Reqtrace.start_trace col ~now:0 () in
  Reqtrace.discard col ~trace:t2;
  Reqtrace.finish col ~trace:t2 ~now:9;
  check_int "discarded trace never finishes" 0 (Reqtrace.finished col);
  Reqtrace.finish col ~trace ~now:5;
  check_int "capped trace still finishes" 1 (Reqtrace.finished col)

let test_after_reply_spans () =
  let reg = Metrics.create () in
  let col = Reqtrace.create ~ring:1 ~exemplars:0 () in
  Reqtrace.attach_metrics col reg;
  let at_replica idx = [ ("part", "0"); ("idx", string_of_int idx) ] in
  let t1, root = Reqtrace.start_trace col ~now:0 () in
  ignore
    (Reqtrace.add_span col ~trace:t1 ~parent:root ~stage:"execute"
       ~attrs:(at_replica 0) ~start:10 40);
  Reqtrace.finish col ~trace:t1 ~now:50;
  let tree = List.hd (Reqtrace.completed col) in
  let rendered = Reqtrace.render_tree tree in
  let stage_hist () = Metrics.find (Metrics.snapshot reg) ~labels:[ ("stage", "execute") ] "req.stage_ns" in
  let hist_before = stage_hist () in
  (* A slower replica executes after the reply: kept with the tree. *)
  check_int "after-reply span gets no id" 0
    (Reqtrace.add_span col ~trace:t1 ~parent:root ~stage:"execute"
       ~attrs:(at_replica 1) ~start:10 70);
  check_int "counted late" 1 (Reqtrace.late_spans col);
  (match (List.hd (Reqtrace.completed col)).Reqtrace.tr_after with
  | [ s ] ->
      check_int "kept after-reply" 70 s.Reqtrace.rs_end;
      check_int "after-reply id" 0 s.Reqtrace.rs_id
  | l -> Alcotest.failf "expected one after-reply span, got %d" (List.length l));
  check_int "tree spans unchanged" 2 (List.length tree.Reqtrace.tr_spans);
  check_bool "rendering unchanged" true (Reqtrace.render_tree tree = rendered);
  check_bool "stage histogram unchanged" true (stage_hist () = hist_before);
  (* The next trace evicts t1 from the one-slot ring: a span for it is
     counted and dropped. *)
  let t2, _ = Reqtrace.start_trace col ~now:100 () in
  (* Ids so far: trace 1, its root 2, its execute span 3. *)
  check_int "ids not consumed by after-reply spans" 4 t2;
  Reqtrace.finish col ~trace:t2 ~now:120;
  check_int "evicted trace: no id" 0
    (Reqtrace.add_span col ~trace:t1 ~parent:root ~stage:"execute"
       ~attrs:(at_replica 2) ~start:10 80);
  check_int "counted late" 2 (Reqtrace.late_spans col);
  check_bool "evicted tree gains nothing" true (List.length tree.Reqtrace.tr_after = 1);
  check_bool "ring tree gains nothing" true
    (List.for_all (fun t -> t.Reqtrace.tr_after = []) (Reqtrace.completed col));
  check_int "unknown trace: no id" 0
    (Reqtrace.add_span col ~trace:999 ~parent:1 ~stage:"execute" ~start:0 1);
  check_int "counted late" 3 (Reqtrace.late_spans col);
  check_int "nothing dropped by the cap" 0 (Reqtrace.dropped_spans col);
  match Metrics.find (Metrics.snapshot reg) "req.late_spans" with
  | Some (Metrics.Counter_v n) -> check_int "late counter metric" 3 n
  | _ -> Alcotest.fail "req.late_spans missing"

(* {1 End-to-end: traced KV system} *)

let test_system_end_to_end () =
  let open Heron_core in
  let eng = Engine.create ~seed:3 () in
  let col = Reqtrace.create () in
  let cfg =
    let c = Config.default ~partitions:2 ~replicas:3 in
    { c with Config.reqtrace = Some col }
  in
  let sys =
    System.create eng ~cfg ~app:(Heron_kv.Kv_app.app ~keys:4 ~partitions:2 ~init:0L)
  in
  System.start sys;
  let client = System.new_client_node sys ~name:"c" in
  Heron_rdma.Fabric.spawn_on client (fun () ->
      ignore (System.submit sys ~from:client (Heron_kv.Kv_app.Put (0, 7L)));
      ignore (System.submit sys ~from:client (Heron_kv.Kv_app.Incr_all [ 0; 1 ]));
      ignore (System.submit sys ~from:client (Heron_kv.Kv_app.Read_all [ 0; 1 ])));
  Engine.run_until eng (Time_ns.ms 5);
  check_int "three requests traced" 3 (Reqtrace.finished col);
  let trees = Reqtrace.export_trees col in
  let all_stages =
    List.concat_map
      (fun t -> List.map (fun s -> s.Reqtrace.rs_stage) t.Reqtrace.tr_spans)
      trees
  in
  List.iter
    (fun stage ->
      check_bool (stage ^ " stage present") true (List.mem stage all_stages))
    [ "request"; "ordering"; "mcast.order"; "mcast.commit"; "execute"; "phase2"; "phase4" ];
  (* Every tree's critical path partitions its end-to-end latency. *)
  List.iter
    (fun tree ->
      match Reqtrace.nest tree.Reqtrace.tr_spans with
      | None -> Alcotest.fail "traced request has no tree"
      | Some node ->
          check_int "attribution sums to latency" (Reqtrace.duration tree)
            (sum_segs (Reqtrace.critical_segments node)))
    trees;
  (* The human rendering mentions the end-to-end duration and stages. *)
  let rendered = Reqtrace.render_tree (List.hd trees) in
  check_bool "render has breakdown" true
    (String.length rendered > 0
    &&
    let rec contains i =
      i + 9 <= String.length rendered
      && (String.sub rendered i 9 = "breakdown" || contains (i + 1))
    in
    contains 0)

(* Same deployment with the compartmentalized pipeline on: batched
   requests must additionally carry [batch.wait] (enqueue to flush) and
   [exec.queue] (admission to dequeue) spans, and attribution must still
   partition each request exactly. One executor per replica guarantees
   observable queueing. *)
let test_system_pipeline_stages () =
  let open Heron_core in
  let eng = Engine.create ~seed:5 () in
  let col = Reqtrace.create () in
  let cfg =
    let c = Config.default ~partitions:2 ~replicas:3 in
    {
      c with
      Config.reqtrace = Some col;
      pipeline =
        {
          Config.pipe_enabled = true;
          pipe_batch_size = 2;
          pipe_flush_timeout_ns = 10_000;
          pipe_executors = 1;
        };
    }
  in
  let sys =
    System.create eng ~cfg ~app:(Heron_kv.Kv_app.app ~keys:4 ~partitions:2 ~init:0L)
  in
  System.start sys;
  for c = 0 to 3 do
    let client = System.new_client_node sys ~name:(Printf.sprintf "c%d" c) in
    Heron_rdma.Fabric.spawn_on client (fun () ->
        for i = 1 to 3 do
          ignore
            (System.submit sys ~from:client (Heron_kv.Kv_app.Put (c, Int64.of_int i)))
        done)
  done;
  Engine.run_until eng (Time_ns.ms 5);
  check_int "twelve requests traced" 12 (Reqtrace.finished col);
  let trees = Reqtrace.export_trees col in
  let all_stages =
    List.concat_map
      (fun t -> List.map (fun s -> s.Reqtrace.rs_stage) t.Reqtrace.tr_spans)
      trees
  in
  List.iter
    (fun stage ->
      check_bool (stage ^ " stage present") true (List.mem stage all_stages))
    [ "request"; "batch.wait"; "ordering"; "exec.queue"; "execute" ];
  List.iter
    (fun tree ->
      match Reqtrace.nest tree.Reqtrace.tr_spans with
      | None -> Alcotest.fail "traced request has no tree"
      | Some node ->
          check_int "attribution sums to latency" (Reqtrace.duration tree)
            (sum_segs (Reqtrace.critical_segments node)))
    trees

(* {1 Perfetto roundtrip} *)

let test_perfetto_roundtrip () =
  let col = Reqtrace.create () in
  let mk () =
    let trace, root = Reqtrace.start_trace col ~attrs:[ ("client", "c") ] ~now:5 () in
    let o =
      Reqtrace.add_span col ~trace ~parent:root ~stage:"ordering"
        ~attrs:[ ("part", "0") ] ~start:5 40
    in
    ignore (Reqtrace.add_span col ~trace ~parent:o ~stage:"execute" ~start:12 30);
    Reqtrace.finish col ~trace ~now:60
  in
  mk ();
  mk ();
  let trees = Reqtrace.export_trees col in
  let doc = Trace_export.perfetto trees in
  let spans = Trace_export.request_spans_of_json doc in
  check_int "all spans recovered" 6 (List.length spans);
  let rebuilt = Trace_export.request_spans_of_json doc |> Reqtrace.trees_of_spans in
  check_int "both trees recovered" 2 (List.length rebuilt);
  let norm trees =
    List.map
      (fun t ->
        ( t.Reqtrace.tr_trace,
          List.sort compare
            (List.map
               (fun s ->
                 ( s.Reqtrace.rs_id,
                   s.Reqtrace.rs_parent,
                   s.Reqtrace.rs_stage,
                   s.Reqtrace.rs_start,
                   s.Reqtrace.rs_end ))
               t.Reqtrace.tr_spans) ))
      trees
  in
  Alcotest.(
    check
      (list (pair int (list (triple (pair int int) (pair string int) int)))))
    "lossless roundtrip"
    (List.map
       (fun (t, ss) ->
         (t, List.map (fun (a, b, c, d, e) -> ((a, b), (c, d), e)) ss))
       (List.sort compare (norm trees)))
    (List.map
       (fun (t, ss) ->
         (t, List.map (fun (a, b, c, d, e) -> ((a, b), (c, d), e)) ss))
       (List.sort compare (norm rebuilt)));
  (* Attributes survive: the exporter stores them as string args. *)
  let root_back =
    List.find
      (fun s -> s.Reqtrace.rs_parent = 0)
      (Trace_export.request_spans_of_json doc)
  in
  Alcotest.(check (option string))
    "root attrs preserved" (Some "c")
    (List.assoc_opt "client" root_back.Reqtrace.rs_attrs)

(* Random collector runs: each trace gets spans at random replicas —
   or with partial or no replica attributes — then finishes and takes
   late spans, which become after-reply spans. Roots may carry replica
   attributes too (as checkpoint traces do) and must stay out of the
   lanes. *)
let gen_run =
  QCheck.Gen.(
    let attrs =
      frequency
        [
          ( 3,
            map2
              (fun p i -> [ ("part", string_of_int p); ("idx", string_of_int i) ])
              (int_range 0 2) (int_range 0 2) );
          (1, map (fun p -> [ ("part", string_of_int p) ]) (int_range 0 2));
          (1, return [ ("gid", "0") ]);
        ]
    in
    let span =
      triple (int_range 0 (Array.length stages - 1)) (pair (int_range 0 500) (int_range 0 500)) attrs
    in
    list_size (int_range 1 6)
      (triple attrs (list_size (int_range 0 6) span) (list_size (int_range 0 4) span)))

let run_collector run =
  let col = Reqtrace.create () in
  List.iter
    (fun (root_attrs, spans, late) ->
      let trace, root = Reqtrace.start_trace col ~attrs:root_attrs ~now:0 () in
      let add (st, (a, b), attrs) =
        ignore
          (Reqtrace.add_span col ~trace ~parent:root ~stage:stages.(st) ~attrs
             ~start:(min a b) (max a b))
      in
      List.iter add spans;
      Reqtrace.finish col ~trace ~now:1_000;
      List.iter add late)
    run;
  Reqtrace.export_trees col

let prop_lanes_and_roundtrip =
  QCheck.Test.make ~count:200 ~name:"replica lanes hold each span once; trees roundtrip"
    (QCheck.make gen_run)
    (fun run ->
      let trees = run_collector run in
      let doc = Trace_export.perfetto trees in
      let events = Json.to_list_exn (Option.get (Json.member "traceEvents" doc)) in
      let field k e = Option.get (Json.member k e) in
      let process_names =
        List.filter_map
          (fun e ->
            match (field "ph" e, field "name" e) with
            | Json.String "M", Json.String "process_name" ->
                Some (field "pid" e, field "name" (field "args" e))
            | _ -> None)
          events
      in
      let lane_events =
        List.filter_map
          (fun e ->
            match (field "ph" e, field "pid" e) with
            | Json.String "X", (Json.Int pid as p) when pid <> 1000 ->
                let args = field "args" e in
                Some
                  ( List.assoc p process_names,
                    field "name" e,
                    (field "ts" e, field "dur" e),
                    (field "trace" args, Json.member "after_reply" args <> None) )
            | _ -> None)
          events
      in
      let us ns = Json.Float (float_of_int ns /. 1_000.) in
      let expected =
        List.concat_map
          (fun tree ->
            let lane ~after s =
              match
                ( Option.bind (List.assoc_opt "part" s.Reqtrace.rs_attrs) int_of_string_opt,
                  Option.bind (List.assoc_opt "idx" s.Reqtrace.rs_attrs) int_of_string_opt )
              with
              | Some p, Some i when s != tree.Reqtrace.tr_root ->
                  [
                    ( Json.String (Printf.sprintf "replica p%d/r%d" p i),
                      Json.String s.Reqtrace.rs_stage,
                      (us s.Reqtrace.rs_start, us (s.Reqtrace.rs_end - s.Reqtrace.rs_start)),
                      (Json.Int s.Reqtrace.rs_trace, after) );
                  ]
              | _ -> []
            in
            List.concat_map (lane ~after:false) tree.Reqtrace.tr_spans
            @ List.concat_map (lane ~after:true) tree.Reqtrace.tr_after)
          trees
      in
      let norm trees =
        List.sort compare
          (List.map
             (fun t ->
               ( t.Reqtrace.tr_trace,
                 List.sort compare t.Reqtrace.tr_spans,
                 t.Reqtrace.tr_after = [] ))
             trees)
      in
      let rebuilt = Reqtrace.trees_of_spans (Trace_export.request_spans_of_json doc) in
      List.sort compare lane_events = List.sort compare expected
      && norm rebuilt = norm (List.map (fun t -> { t with Reqtrace.tr_after = [] }) trees))

let () =
  Alcotest.run "reqtrace"
    [
      ( "critical-path",
        [
          Alcotest.test_case "fan-out join" `Quick test_fanout_join;
          Alcotest.test_case "overlapping siblings re-nest" `Quick
            test_overlapping_siblings_nested;
          Alcotest.test_case "truncated / dropped children" `Quick
            test_truncated_children;
          Qc.test prop_attribution_exact;
        ] );
      ( "collector",
        [
          Alcotest.test_case "ring, exemplars, metrics" `Quick
            test_collector_ring_and_metrics;
          Alcotest.test_case "span cap and discard" `Quick
            test_collector_span_cap_and_discard;
          Alcotest.test_case "after-reply spans" `Quick test_after_reply_spans;
        ] );
      ( "system",
        [
          Alcotest.test_case "traced KV requests" `Quick test_system_end_to_end;
          Alcotest.test_case "pipelined stages traced" `Quick
            test_system_pipeline_stages;
        ] );
      ( "export",
        [
          Alcotest.test_case "perfetto roundtrip" `Quick test_perfetto_roundtrip;
          Qc.test prop_lanes_and_roundtrip;
        ] );
    ]
