(* Calibration probe: prints the key latency/throughput numbers the
   cost model is tuned against. Not part of the benchmark suite.

     dune exec bin/probe.exe                    -- calibration run
     dune exec bin/probe.exe -- trace FILE      -- Perfetto trace of a
                                                   small simulated run
     dune exec bin/probe.exe -- explain FILE [--top K]
                                                -- critical paths of the K
                                                   slowest requests in a
                                                   Perfetto dump
     dune exec bin/probe.exe -- jsonlint FILE   -- validate a JSON file
                                                   (exit 0/1)
     dune exec bin/probe.exe -- chaos [--seeds 0..500 |
                                                --replay FILE-OR-DIR...]
                                                [--shrink] [--corpus DIR]
                                                [--reconfig | --elastic]
                                                [--pipeline] [--fast-reads]
                                                -- chaos-schedule sweep /
                                                   corpus replay (exit 0/1)
     dune exec bin/probe.exe -- benchguard CURRENT BASELINE --keys a,b
                                                [--max-regression-pct N]
                                                -- deterministic bench
                                                   regression guard (exit 0/1)
     dune exec bin/probe.exe -- reconfig        -- live-repartitioning demo:
                                                   manual migration, then the
                                                   rebalancer spreads a hotspot *)

open Heron_stats
open Heron_tpcc
open Heron_harness

let pr fmt = Printf.printf fmt

let show name (rs : Driver.run_stats) =
  pr "%-28s tput=%8.0f tps  lat(avg)=%7.1fus  single=%7.1fus  multi=%7.1fus  n=%d\n"
    name rs.Driver.rs_throughput_tps
    (Sample_set.mean rs.Driver.rs_latency /. 1e3)
    (if Sample_set.is_empty rs.Driver.rs_latency_single then 0.
     else Sample_set.mean rs.Driver.rs_latency_single /. 1e3)
    (if Sample_set.is_empty rs.Driver.rs_latency_multi then 0.
     else Sample_set.mean rs.Driver.rs_latency_multi /. 1e3)
    rs.Driver.rs_completed

(* Mean of a replica histogram over a run's window, all replicas, in us. *)
let window_mean_us rs name =
  let count, sum = Driver.window_hist rs ~labels:[] name in
  float_of_int sum /. float_of_int count /. 1e3

let run_calibration () =
  let t_start = Unix.gettimeofday () in
  (* 1. Single-client NewOrder latency + breakdown, 1WH. *)
  let scale = Scale.bench ~warehouses:1 in
  let sys = Driver.heron_tpcc_system ~scale () in
  let rs =
    Driver.run_system ~sys ~clients:1
      ~gen:(fun ~client rng ->
        ignore client;
        (Workload.gen_new_order Workload.local_only ~scale ~rng ~home_w:1, None))
      ()
  in
  show "1WH NewOrder 1 client" rs;
  pr "  breakdown: ordering=%.1fus exec=%.1fus\n"
    (window_mean_us rs "replica.ordering_ns")
    (window_mean_us rs "replica.exec_ns");

  (* 2. Single-client pinned 4-partition NewOrder. *)
  let scale4 = Scale.bench ~warehouses:4 in
  let sys4 = Driver.heron_tpcc_system ~scale:scale4 () in
  let rs4 =
    Driver.run_system ~sys:sys4 ~clients:1
      ~gen:(fun ~client rng ->
        ignore client;
        (Workload.gen_new_order_pinned ~scale:scale4 ~rng ~warehouses:[ 1; 2; 3; 4 ], None))
      ()
  in
  show "4WH pinned NewOrder 1c" rs4;
  (* Coordination per request: Phase 2 plus Phase 4 wait, over the
     Phase 4 count (every request here spans all four partitions). *)
  let _, p2_sum = Driver.window_hist rs4 ~labels:[] "coord.phase2_wait_ns" in
  let p4_count, p4_sum = Driver.window_hist rs4 ~labels:[] "coord.phase4_wait_ns" in
  pr "  breakdown: ordering=%.1fus coord=%.1fus exec=%.1fus\n"
    (window_mean_us rs4 "replica.ordering_ns")
    (float_of_int (p2_sum + p4_sum) /. float_of_int p4_count /. 1e3)
    (window_mean_us rs4 "replica.exec_ns");

  (* 3. Heron TPCC throughput, 2WH, saturation. *)
  List.iter
    (fun clients ->
      let scale2 = Scale.bench ~warehouses:2 in
      let sys2 = Driver.heron_tpcc_system ~scale:scale2 () in
      let rs2 =
        Driver.run_system ~sys:sys2 ~clients
          ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale:scale2)
          ()
      in
      show (Printf.sprintf "2WH TPCC %d clients" clients) rs2)
    [ 2; 4; 8; 16 ];

  (* 4. RamCast null, 2 groups. *)
  let rs_rc =
    Driver.run_ramcast ~partitions:2 ~clients:8 ~msg_bytes:200
      ~gen_dst:(fun rng ->
        if Random.State.int rng 100 < 10 then [ 0; 1 ]
        else [ Random.State.int rng 2 ])
      ()
  in
  show "RamCast 2 groups 8c" rs_rc;

  (* 5. DynaStar 1WH. *)
  let scale_ds = Scale.bench ~warehouses:1 in
  let rs_ds =
    Driver.run_dynastar ~scale:scale_ds ~clients:4 ~profile:Workload.standard ()
  in
  show "DynaStar 1WH 4c" rs_ds;
  pr "wall time: %.1fs\n" (Unix.gettimeofday () -. t_start)

(* [probe trace FILE]: run a small 2-partition x 3-replica KV workload
   with request-scoped tracing attached to the deployment and export
   the request trees, drawn also as per-replica lanes, as Chrome
   trace_event JSON (open at https://ui.perfetto.dev, or feed to
   [probe explain]). *)
let run_trace file =
  let open Heron_sim in
  let open Heron_core in
  let module Reqtrace = Heron_obs.Reqtrace in
  let eng = Engine.create ~seed:7 () in
  let reqtrace = Reqtrace.create () in
  let cfg =
    { (Config.default ~partitions:2 ~replicas:3) with
      Config.reqtrace = Some reqtrace }
  in
  let app = Heron_kv.Kv_app.app ~keys:8 ~partitions:2 ~init:0L in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  let client = System.new_client_node sys ~name:"trace-client" in
  Heron_rdma.Fabric.spawn_on client (fun () ->
      let rng = Random.State.make [| 0x7ACE |] in
      for i = 1 to 60 do
        let req =
          if i mod 3 = 0 then Heron_kv.Kv_app.Read_all [ 0; 1 ]
          else Heron_kv.Kv_app.Put (Random.State.int rng 8, Int64.of_int i)
        in
        ignore (System.submit sys ~from:client req)
      done);
  Engine.run_until eng (Time_ns.ms 100);
  let trees = Reqtrace.export_trees reqtrace in
  Heron_obs.Trace_export.write_file file trees;
  let lanes = Heron_obs.Trace_export.replica_lanes trees in
  pr "trace written to %s (%d replicas, %d spans, %d request trees; %d late, %d dropped)\n"
    file (List.length lanes)
    (List.fold_left (fun acc (_, spans) -> acc + List.length spans) 0 lanes)
    (List.length trees) (Reqtrace.late_spans reqtrace) (Reqtrace.dropped_spans reqtrace)

(* [probe explain FILE [--top K]]: re-read the request trees embedded
   in a Perfetto dump written by [probe trace] or [bench --trace] and
   print the critical paths of the K slowest requests. *)
let run_explain args =
  let file = ref None in
  let top = ref 5 in
  let usage () =
    Printf.eprintf "usage: probe explain FILE [--top K]\n";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--top" :: k :: rest ->
        (match int_of_string_opt k with
        | Some k when k > 0 -> top := k
        | Some _ | None -> usage ());
        parse rest
    | f :: rest when !file = None ->
        file := Some f;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let file = match !file with Some f -> f | None -> usage () in
  let ic =
    try open_in_bin file
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Heron_obs.Json.parse s with
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
  | Ok doc -> (
      let spans = Heron_obs.Trace_export.request_spans_of_json doc in
      match Heron_obs.Reqtrace.trees_of_spans spans with
      | [] ->
          Printf.eprintf
            "%s: no request spans (written without request tracing?)\n" file;
          exit 1
      | trees ->
          let shown = ref 0 in
          pr "%d request trees in %s; %d slowest:\n\n" (List.length trees) file
            (min !top (List.length trees));
          List.iter
            (fun tree ->
              if !shown < !top then begin
                incr shown;
                pr "%s\n" (Heron_obs.Reqtrace.render_tree tree)
              end)
            trees)

(* [probe chaos]: sweep generated fault schedules (and/or replay pinned
   ones) against the simulator; see DESIGN.md's chaos section.
   [probe longhaul] is the same runner over the longhaul family
   (DESIGN.md §13): durability on, long horizons, and the flat-memory /
   O(delta)-rejoin verdict in addition to linearizability. *)
let run_chaos cmd args =
  let longhaul = cmd = "longhaul" in
  let module Sched = Heron_chaos.Schedule in
  let module Cdriver = Heron_chaos.Driver in
  let module Shrink = Heron_chaos.Shrink in
  let seeds = ref None in
  let shrink = ref false in
  let reconfig = ref false in
  let elastic = ref false in
  let pipeline = ref false in
  let fast_reads = ref false in
  let corpus = ref None in
  let replays = ref [] in
  let usage () =
    Printf.eprintf
      "usage: probe %s [--seeds A..B | --replay FILE-OR-DIR...] [--shrink] \
       [--corpus DIR]%s [--pipeline] [--fast-reads]\n"
      cmd
      (if longhaul then "" else " [--reconfig | --elastic]");
    exit 2
  in
  let misuse msg =
    Printf.eprintf "%s\n" msg;
    usage ()
  in
  (* A --replay directory means every *.json inside it, in name order —
     so CI can point at the whole pinned corpus. *)
  let expand_replay path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: spec :: rest ->
        (match Scanf.sscanf spec "%d..%d%!" (fun a b -> (a, b)) with
        | lo, hi when lo <= hi -> seeds := Some (lo, hi)
        (* An empty range would sweep nothing and pass. *)
        | _ -> misuse ("empty seed range " ^ spec)
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> usage ());
        parse rest
    | "--shrink" :: rest ->
        shrink := true;
        parse rest
    | "--reconfig" :: rest ->
        reconfig := true;
        parse rest
    | "--elastic" :: rest ->
        elastic := true;
        parse rest
    | "--pipeline" :: rest ->
        pipeline := true;
        parse rest
    | "--fast-reads" :: rest ->
        fast_reads := true;
        parse rest
    | "--corpus" :: dir :: rest ->
        corpus := Some dir;
        parse rest
    | "--replay" :: path :: rest ->
        (match expand_replay path with
        | [] ->
            Printf.eprintf "%s: no *.json schedules inside\n" path;
            exit 2
        | files -> replays := List.rev_append files !replays);
        parse rest
    | _ -> usage ()
  in
  parse args;
  (* --reconfig and --elastic pick the generator family; they are not
     deployment features, so a combination that cannot be honoured is a
     usage error rather than a silently ignored flag. *)
  if !reconfig && !elastic then misuse "--reconfig and --elastic are different families";
  if longhaul && (!reconfig || !elastic) then
    misuse "longhaul is its own family: --reconfig and --elastic do not apply";
  if !seeds <> None && !replays <> [] then
    misuse "--seeds sweeps generated schedules, --replay pinned ones: pick one";
  (* A family picks the generator, which a replay never calls. *)
  if !replays <> [] && (longhaul || !reconfig || !elastic) then
    misuse
      "a pin records its own deployment: replay it with probe chaos --replay \
       and no --reconfig or --elastic";
  let family, gen =
    if longhaul then ("longhaul", Sched.generate_longhaul)
    else if !elastic then ("elastic", Sched.generate_elastic)
    else if !reconfig then ("reconfig", Sched.generate_reconfig)
    else ("chaos", Sched.generate)
  in
  (* A schedule runs under the deployment it records — its family's for
     a generated one, the one it failed in for a pin — with the features
     named on the command line switched on as well. *)
  let deploy sc =
    let d = sc.Sched.sc_deployment in
    { sc with
      Sched.sc_deployment =
        { d with
          Sched.pipeline = d.Sched.pipeline || !pipeline;
          fast_reads = d.Sched.fast_reads || !fast_reads } }
  in
  let failures = ref 0 in
  let report sc outcome =
    match outcome with
    | Cdriver.Completed _ -> ()
    | Cdriver.Failed f ->
        incr failures;
        pr "seed %d FAILED (%s): %s\n" sc.Sched.sc_seed (Cdriver.failure_kind f)
          (Format.asprintf "%a" Cdriver.pp_failure f);
        if !shrink then begin
          let small = Shrink.minimize sc ~kind:(Cdriver.failure_kind f) in
          pr "  shrunk to %d events:\n%s\n"
            (List.length small.Sched.sc_events)
            (Format.asprintf "    %a" Sched.pp small);
          match !corpus with
          | None -> ()
          | Some dir ->
              (try Unix.mkdir dir 0o755
               with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              (* The pin carries its deployment; the name only keeps
                 pins of different families and deployments apart. *)
              let file =
                Filename.concat dir
                  (Printf.sprintf "%s_seed_%d.json"
                     (String.concat "_"
                        (family :: Sched.features small.Sched.sc_deployment))
                     sc.Sched.sc_seed)
              in
              Sched.save small ~file;
              pr "  pinned as %s\n" file
        end
  in
  List.iter
    (fun file ->
      match Sched.load ~file with
      | Error msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 2
      | Ok sc ->
          let sc = deploy sc in
          pr "replay %s: %!" file;
          let outcome = Cdriver.run sc in
          pr "%s\n" (Format.asprintf "%a" Cdriver.pp_outcome outcome);
          report sc outcome)
    (List.rev !replays);
  if !replays = [] then begin
    let t0 = Unix.gettimeofday () in
    let seed_lo, seed_hi = Option.value !seeds ~default:(0, 100) in
    for seed = seed_lo to seed_hi do
      let sc = deploy (gen ~seed) in
      report sc (Cdriver.run sc)
    done;
    pr "%d %sschedules (seeds %d..%d), %d failed, %.1fs\n"
      (seed_hi - seed_lo + 1)
      (String.concat ""
         (List.map (fun tag -> tag ^ " ")
            ((if family = "chaos" then [] else [ family ])
            @ (if !pipeline then [ "pipelined" ] else [])
            @ if !fast_reads then [ "fast-read" ] else [])))
      seed_lo seed_hi !failures
      (Unix.gettimeofday () -. t0)
  end;
  exit (if !failures > 0 then 1 else 0)

(* [probe reconfig]: small live-repartitioning demo (DESIGN.md §10) —
   a manual migration first, then the load-driven rebalancer spreading
   a hotspot of even keys that all start on partition 0. *)
let run_reconfig () =
  let open Heron_sim in
  let open Heron_core in
  let partitions = 2 and keys = 8 in
  let eng = Engine.create ~seed:11 () in
  let cfg =
    { (Config.default ~partitions ~replicas:3) with
      Config.reconfig = { Config.enabled = true } }
  in
  let app = Heron_kv.Kv_app.app ~keys ~partitions ~init:0L in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  let stop = ref false in
  for c = 0 to 3 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "rc-c%d" c) in
    let rng = Random.State.make [| c; 0x4EC |] in
    Heron_rdma.Fabric.spawn_on node (fun () ->
        while not !stop do
          (* Hotspot: keys 0, 2, 4, 6 — all on partition 0 at epoch 0. *)
          let key = 2 * Random.State.int rng 4 in
          ignore (System.submit sys ~from:node (Heron_kv.Kv_app.Add (key, 1L)))
        done)
  done;
  Engine.run_until eng (Time_ns.ms 2);
  let admin = System.new_client_node sys ~name:"admin" in
  Heron_rdma.Fabric.spawn_on admin (fun () ->
      match
        Heron_reconfig.Migration.migrate sys ~from:admin
          ~oids:[ Heron_kv.Kv_app.oid_of_key 2 ] ~dst:1
      with
      | Ok () ->
          pr "manual migration: key 2 -> partition 1 ok, epoch now %d\n"
            (Placement.epoch (Placement.view (System.directory sys)))
      | Error e -> pr "manual migration failed: %s\n" e);
  Engine.run_until eng (Time_ns.ms 4);
  let rb =
    Heron_reconfig.Rebalancer.start
      ~policy:{ Heron_reconfig.Rebalancer.default_policy with imbalance_x100 = 130 }
      sys
  in
  Engine.run_until eng (Time_ns.ms 24);
  Heron_reconfig.Rebalancer.stop rb;
  stop := true;
  Engine.run_until eng (Engine.now eng + Time_ns.ms 1);
  let c name =
    Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter cfg.Config.metrics name)
  in
  pr "rebalancer: %d load checks, %d objects moved\n"
    (Heron_reconfig.Rebalancer.rounds rb)
    (Heron_reconfig.Rebalancer.moves rb);
  let dir = Placement.view (System.directory sys) in
  pr "directory epoch %d; placement now:" (Placement.epoch dir);
  for k = 0 to keys - 1 do
    match
      Placement.placement_under dir app.App.placement_of (Heron_kv.Kv_app.oid_of_key k)
    with
    | App.Partition p -> pr " k%d->p%d" k p
    | App.Replicated -> ()
  done;
  pr "\nmigrations=%d objects_moved=%d wrong_epoch_retries=%d\n"
    (c "reconfig.migrations") (c "reconfig.objects_moved")
    (c "reconfig.wrong_epoch_retries")

(* [probe benchguard CURRENT BASELINE --keys a,b [--max-regression-pct N]]:
   CLI shell around {!Heron_harness.Benchguard} (which holds the
   comparison logic and is unit-tested directly). Exit 0 when every key
   holds, 1 on any regression or missing key, 2 on usage errors. *)
let run_benchguard args =
  let usage () =
    Printf.eprintf
      "usage: probe benchguard CURRENT BASELINE --keys a,b \
       [--max-regression-pct N]\n";
    exit 2
  in
  let files = ref [] in
  let keys = ref [] in
  let max_pct = ref 10.0 in
  let rec parse = function
    | [] -> ()
    | "--keys" :: spec :: rest ->
        keys := String.split_on_char ',' spec |> List.filter (fun k -> k <> "");
        parse rest
    | "--max-regression-pct" :: n :: rest ->
        (match float_of_string_opt n with
        | Some f when f >= 0. -> max_pct := f
        | Some _ | None -> usage ());
        parse rest
    | f :: rest when List.length !files < 2 ->
        files := f :: !files;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let current, baseline =
    match List.rev !files with [ c; b ] -> (c, b) | _ -> usage ()
  in
  if !keys = [] then usage ();
  let module Bg = Heron_harness.Benchguard in
  let result =
    Bg.check ~current ~baseline ~keys:!keys ~max_regression_pct:!max_pct
  in
  (match result with
  | Bg.Ok_all vs | Bg.Regressed vs ->
      List.iter
        (fun v ->
          pr "%s\n"
            (Format.asprintf "%a" (Bg.pp_verdict ~max_regression_pct:!max_pct) v))
        vs
  | Bg.Bad_input _ -> ());
  (match result with
  | Bg.Bad_input msg -> Printf.eprintf "%s\n" msg
  | _ -> pr "%s\n" (Format.asprintf "%a" Bg.pp_summary result));
  exit (Bg.exit_code result)

let run_jsonlint file =
  let ic =
    try open_in_bin file
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Heron_obs.Json.parse s with
  | Ok _ ->
      pr "%s: valid JSON\n" file;
      exit 0
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> run_calibration ()
  | [ "trace"; file ] -> run_trace file
  | "explain" :: rest -> run_explain rest
  | [ "jsonlint"; file ] -> run_jsonlint file
  | (("chaos" | "longhaul") as cmd) :: rest -> run_chaos cmd rest
  | "benchguard" :: rest -> run_benchguard rest
  | [ "reconfig" ] -> run_reconfig ()
  | _ ->
      Printf.eprintf
        "usage: probe [trace FILE | explain FILE [--top K] | jsonlint FILE | \
         chaos ... | longhaul ... | benchguard ... | reconfig]  (no args: \
         calibration)\n";
      exit 2
