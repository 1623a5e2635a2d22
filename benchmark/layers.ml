(* Per-layer metrics, read from outside the program: the pass's own
   metric registry, the request-trace collector's critical-path stage
   histograms, wall time around public calls, and the Bechamel step. *)

module Metrics = Heron_obs.Metrics

let fold snap name f init =
  List.fold_left
    (fun acc e -> if e.Metrics.e_name = name then f acc e else acc)
    init snap

let counter snap name =
  fold snap name
    (fun acc e -> match e.Metrics.e_value with Metrics.Counter_v n -> acc + n | _ -> acc)
    0

let hist snap name pick =
  fold snap name
    (fun acc e ->
      match e.Metrics.e_value with Metrics.Histogram_v h -> acc + pick h | _ -> acc)
    0

let hist_max snap name =
  fold snap name
    (fun acc e ->
      match e.Metrics.e_value with
      | Metrics.Histogram_v h -> max acc h.Metrics.hs_max
      | _ -> acc)
    0

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let pct a b = 100. *. ratio a b

(* Critical-path nanoseconds per stage: the [req.stage_ns] histogram
   sums, which add up exactly to the [req.e2e_ns] sum. *)
let stage_sums snap =
  fold snap "req.stage_ns"
    (fun acc e ->
      match e.Metrics.e_value with
      | Metrics.Histogram_v h ->
          (List.assoc "stage" e.Metrics.e_labels, h.Metrics.hs_sum) :: acc
      | _ -> acc)
    []

(* Which layer each stage belongs to; stages not listed (checkpoint
   rounds and the elastic orchestrator's reshard.* spans) count as
   obs.other_pct. *)
let stage_metric = function
  | "request" -> Some "client.reply_pct"
  | "ordering" -> Some "client.ordering_pct"
  | "mcast.order" -> Some "mcast.order_pct"
  | "mcast.commit" -> Some "mcast.commit_pct"
  | "phase2" -> Some "coord.phase2_pct"
  | "phase4" -> Some "coord.phase4_pct"
  | "execute" -> Some "exec.execute_pct"
  | "conflict-wait" -> Some "exec.conflict_wait_pct"
  | "batch.wait" -> Some "pipeline.batch_wait_pct"
  | "exec.queue" -> Some "pipeline.exec_queue_pct"
  | "read.local" -> Some "lease.read_local_pct"
  | "read.fallback" -> Some "lease.read_fallback_pct"
  | "state-transfer" -> Some "dur.state_transfer_pct"
  | "redirect" -> Some "reconfig.redirect_pct"
  | _ -> None

let stage_metric_names =
  [
    "client.reply_pct"; "client.ordering_pct"; "mcast.order_pct"; "mcast.commit_pct";
    "coord.phase2_pct"; "coord.phase4_pct"; "exec.execute_pct"; "exec.conflict_wait_pct";
    "pipeline.batch_wait_pct"; "pipeline.exec_queue_pct"; "lease.read_local_pct";
    "lease.read_fallback_pct"; "dur.state_transfer_pct";
    "reconfig.redirect_pct"; "obs.other_pct";
  ]

let stage_shares snap =
  let sums = stage_sums snap in
  let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 sums in
  let share name =
    List.fold_left
      (fun acc (stage, ns) ->
        let m = Option.value (stage_metric stage) ~default:"obs.other_pct" in
        if m = name then acc + ns else acc)
      0 sums
  in
  List.map (fun name -> (name, "%", pct (share name) total)) stage_metric_names

(* Registry-derived figures over the measure window, available from any
   pass, traced or not: the workloads' mechanism checks read these. *)
let registry (o : Pass.outcome) =
  let w = o.Pass.window in
  let reqs = o.Pass.rc.Pass.completed in
  let per_req name = ratio (counter w name) reqs in
  let count name = float_of_int (counter w name) in
  let sum name = hist w name (fun h -> h.Metrics.hs_sum) in
  let mean name = ratio (sum name) (hist w name (fun h -> h.Metrics.hs_count)) in
  let submits = counter w "mcast.submits" in
  let local = counter w "reads.local_served" in
  let batches = hist w "pipeline.batch_occupancy" (fun h -> h.Metrics.hs_count) in
  let lat = o.Pass.rc.Pass.lat in
  let latency_ns = Heron_stats.Sample_set.(mean lat *. float_of_int (count lat)) in
  [
    ("sim.pending_events_end", "count", float_of_int o.Pass.pending_events);
    ("sim.live_fibers_end", "count", float_of_int o.Pass.live_fibers);
    ("rdma.verbs_per_req", "verbs/req", per_req "rdma.verb.count");
    ("rdma.bytes_per_req", "B/req", per_req "rdma.verb.bytes");
    ("rdma.verb_us_per_req", "us/req", ratio (sum "rdma.verb.latency_ns") reqs /. 1e3);
    ( "rdma.wqes_per_doorbell",
      "wqe/ring",
      ratio (counter w "rdma.doorbell.wqes") (counter w "rdma.doorbell.rings") );
    ("rdma.dropped_writes", "count", count "rdma.dropped_writes");
    ("rdma.failure_timeouts", "count", count "rdma.failure_timeouts");
    ("mcast.submits_per_req", "1/req", ratio submits reqs);
    ("mcast.deliveries_per_req", "1/req", per_req "mcast.deliveries");
    ( "mcast.rounds_per_submit",
      "1/submit",
      ratio (counter w "mcast.timestamp_rounds") submits );
    ("mcast.log_retained_max", "count", float_of_int o.Pass.log_retained_max);
    ("mcast.rejoin_replay_bytes", "B", count "mcast.rejoin_replay_bytes");
    ("coord.slot_reads_per_req", "1/req", per_req "coord.slot_reads");
    ("coord.lagger_detections", "count", count "coord.lagger_detections");
    ("coord.state_transfers", "count", count "coord.state_transfers");
    ("exec.dual_version_miss_per_req", "1/req", per_req "store.dual_version_miss");
    ( "exec.conflict_blocked_frac",
      "ratio",
      ratio (counter w "sched.conflict_blocked") (counter w "sched.conflict_probes") );
    ("exec.skipped_deliveries", "count", count "replica.skipped_deliveries");
    ( "pipeline.batch_occupancy_mean",
      "req/batch",
      ratio (sum "pipeline.batch_occupancy") batches );
    ( "pipeline.flush_timeout_frac",
      "ratio",
      ratio (counter w "pipeline.batch_flush_timeout") batches );
    ("pipeline.exec_queue_depth_mean", "count", mean "pipeline.exec_queue_depth");
    ("lease.local_frac", "ratio", ratio local (local + counter w "reads.lease_miss"));
    (* writers' lease commit-wait, as a share of summed client latency *)
    ( "lease.invalidation_pct",
      "%",
      100. *. float_of_int (sum "reads.invalidation_ns") /. Float.max 1. latency_ns );
    ("dur.checkpoints", "count", count "durability.checkpoints");
    ("dur.log_len_max", "count", float_of_int (hist_max w "durability.log_len"));
    ("dur.rejoin_bytes", "B", count "durability.rejoin_bytes");
    ("reconfig.migrations", "count", count "reconfig.migrations");
    ("reconfig.objects_moved", "count", count "reconfig.objects_moved");
    ("reconfig.redirects_per_req", "1/req", per_req "reconfig.wrong_epoch_retries");
  ]

(* The full per-layer table: [plain] is the untraced pass (the
   simulator's CPU time), [traced] the same pass with the collector
   attached. *)
let all ~(plain : Pass.outcome) ~(traced : Pass.outcome) ~micro =
  let calls = traced.Pass.app_calls in
  [
    ("sim.run_cpu_s", "s", plain.Pass.run_cpu_s);
    ( "sim.req_per_cpu_s",
      "req/cpu-s",
      float_of_int plain.Pass.rc.Pass.completed /. plain.Pass.run_cpu_s );
  ]
  @ List.map (fun (name, ns) -> (name, "ns", ns)) micro
  @ registry traced
  @ stage_shares traced.Pass.window
  @ [
      ("exec.app_calls_per_req", "1/req", ratio calls traced.Pass.rc.Pass.completed);
      ("exec.app_wall_ns_per_call", "ns", ratio traced.Pass.app_wall_ns calls);
      ( "exec.app_wall_share_pct",
        "%",
        100. *. float_of_int traced.Pass.app_wall_ns /. 1e9 /. traced.Pass.run_cpu_s );
      ( "obs.trace_overhead_pct",
        "%",
        100. *. ((traced.Pass.run_cpu_s /. plain.Pass.run_cpu_s) -. 1.) );
      ( "obs.dropped_spans",
        "count",
        float_of_int (counter traced.Pass.final "req.dropped_spans") );
    ]

(* The critical-path attribution is exact: stage sums add up to the
   end-to-end sum, with no span refused by the per-trace cap. *)
let attribution_check (traced : Pass.outcome) =
  let snap = traced.Pass.final in
  let stages = List.fold_left (fun acc (_, ns) -> acc + ns) 0 (stage_sums snap) in
  let e2e = hist snap "req.e2e_ns" (fun h -> h.Metrics.hs_sum) in
  let dropped = counter snap "req.dropped_spans" in
  if stages = e2e && dropped = 0 && e2e > 0 then Ok ()
  else
    Error (Printf.sprintf "stage sum %d, e2e sum %d, dropped spans %d" stages e2e dropped)
