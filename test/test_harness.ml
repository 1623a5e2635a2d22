(* Tests for heron_harness: the closed-loop driver's accounting and
   smoke tests of the experiment generators (shape of the output
   tables, sanity of the measured relationships the paper's claims rest
   on). The full-fidelity runs live in bench/main.ml; here everything
   uses tiny windows. *)

open Heron_sim
open Heron_stats
open Heron_core
open Heron_tpcc
open Heron_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Driver accounting} *)

let test_driver_counts_only_measure_window () =
  let scale = Scale.tiny ~warehouses:1 in
  let sys = Driver.heron_tpcc_system ~scale () in
  let rs =
    Driver.run_system ~warmup:(Time_ns.ms 2) ~measure:(Time_ns.ms 10) ~sys ~clients:2
      ~gen:(Driver.tpcc_gen ~profile:Workload.local_only ~scale)
      ()
  in
  check_bool "completed some" true (rs.Driver.rs_completed > 100);
  check_int "latency samples = completed" rs.Driver.rs_completed
    (Sample_set.count rs.Driver.rs_latency);
  (* Throughput is completed / measure window. *)
  Alcotest.(check (float 1.)) "tps consistent"
    (float_of_int rs.Driver.rs_completed /. 0.01)
    rs.Driver.rs_throughput_tps;
  (* The registry window starts after warmup: executed during the
     window is close to completed (off by in-flight requests). *)
  let executed =
    List.fold_left
      (fun acc i ->
        max acc
          (Driver.window_count rs
             ~labels:[ ("part", "0"); ("idx", string_of_int i) ]
             "replica.executed"))
      0 [ 0; 1; 2 ]
  in
  check_bool "replica stats describe the window" true
    (abs (executed - rs.Driver.rs_completed) < 20)

let test_driver_single_multi_split () =
  let scale = Scale.tiny ~warehouses:2 in
  let sys = Driver.heron_tpcc_system ~scale () in
  let rs =
    Driver.run_system ~warmup:(Time_ns.ms 2) ~measure:(Time_ns.ms 20) ~sys ~clients:4
      ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale)
      ()
  in
  check_int "split adds up" rs.Driver.rs_completed
    (Sample_set.count rs.Driver.rs_latency_single
    + Sample_set.count rs.Driver.rs_latency_multi);
  check_bool "some multi-partition traffic" true
    (Sample_set.count rs.Driver.rs_latency_multi > 0);
  check_bool "multi costs more on average" true
    (Sample_set.mean rs.Driver.rs_latency_multi
    > Sample_set.mean rs.Driver.rs_latency_single)

let test_ramcast_runner () =
  let rs =
    Driver.run_ramcast ~warmup:(Time_ns.ms 1) ~measure:(Time_ns.ms 10) ~partitions:2
      ~clients:4
      ~gen_dst:(fun rng -> if Random.State.bool rng then [ 0 ] else [ 0; 1 ])
      ~msg_bytes:128 ()
  in
  check_bool "messages flowed" true (rs.Driver.rs_completed > 100);
  check_bool "multicast latency is microseconds" true
    (Sample_set.mean rs.Driver.rs_latency < 1e6)

let test_null_app_isolates_coordination () =
  (* Null requests must be much faster than TPCC requests. *)
  let eng = Engine.create () in
  let cfg = Config.default ~partitions:2 ~replicas:3 in
  let sys = System.create eng ~cfg ~app:Driver.null_app in
  System.start sys;
  let rs =
    Driver.run_system ~warmup:(Time_ns.ms 1) ~measure:(Time_ns.ms 10) ~sys ~clients:4
      ~gen:(fun ~client rng ->
        ignore client;
        let dst = if Random.State.bool rng then [ 0 ] else [ 0; 1 ] in
        ({ Driver.nr_dst = []; nr_bytes = 200 }, Some dst))
      ()
  in
  check_bool "null requests complete" true (rs.Driver.rs_completed > 200);
  check_bool "null is cheap" true (Sample_set.mean rs.Driver.rs_latency < 60_000.)

(* {1 Experiment smoke tests} *)

let rows_of t = Table.rows t

let test_fig6_shape () =
  let breakdown, cdf = Experiments.fig6 ~quick:true () in
  check_int "five workloads" 5 (List.length (rows_of breakdown));
  check_int "five cdf rows" 5 (List.length (rows_of cdf));
  (* 1WH has no coordination; 4WH does. *)
  let row name =
    List.find (fun r -> List.hd r = name) (rows_of breakdown)
  in
  Alcotest.(check string) "1WH no coordination" "0.0" (List.nth (row "1WH") 2);
  check_bool "4WH coordinates" true (float_of_string (List.nth (row "4WH") 2) > 0.);
  (* Latency grows with the number of partitions touched. *)
  let total name = float_of_string (List.nth (row name) 4) in
  check_bool "more partitions, higher latency" true
    (total "1WH" < total "2WH" && total "2WH" < total "4WH")

let test_fig7_shape () =
  let averages, _ = Experiments.fig7 ~quick:true () in
  check_int "five transaction types" 5 (List.length (rows_of averages));
  let row name = List.find (fun r -> List.hd r = name) (rows_of averages) in
  (* NewOrder and Payment have multi-partition samples; the local
     transactions do not. *)
  check_bool "NewOrder has multi" true (List.nth (row "NewOrder") 2 <> "-");
  Alcotest.(check string) "Delivery is local" "-" (List.nth (row "Delivery") 2);
  (* StockLevel is the expensive local transaction (serialized table
     scans). *)
  let overall name = float_of_string (List.nth (row name) 3) in
  check_bool "StockLevel costs most among locals" true
    (overall "StockLevel" > overall "OrderStatus"
    && overall "StockLevel" > overall "Delivery")

let test_fig8_shape () =
  let t = Experiments.fig8 ~quick:true () in
  let rows = rows_of t in
  check_int "seven scenarios (quick)" 7 (List.length rows);
  (* Latency grows with transferred bytes, and non-serialized costs
     more than serialized at equal size. *)
  let value row = List.nth row 2 in
  let to_ns cell =
    match String.split_on_char ' ' cell with
    | [ x; "us" ] -> int_of_float (float_of_string x *. 1e3)
    | [ x; "ms" ] -> int_of_float (float_of_string x *. 1e6)
    | _ -> Alcotest.failf "bad latency cell %S" cell
  in
  let find scenario data =
    to_ns (value (List.find (fun r -> List.hd r = scenario && List.nth r 1 = data) rows))
  in
  let proto = to_ns (value (List.hd rows)) in
  check_bool "protocol is microseconds" true (proto < 10_000);
  check_bool "64KB < 640KB" true (find "Serialized" "64KB" < find "Serialized" "640KB");
  check_bool "640KB < 6.4MB" true (find "Serialized" "640KB" < find "Serialized" "6.4MB");
  check_bool "serialization overhead visible" true
    (find "Non-serialized" "640KB" > find "Serialized" "640KB")

let test_table1_shape () =
  let t = Experiments.table1 ~quick:true () in
  let rows = rows_of t in
  check_int "one config x two partitions (quick)" 2 (List.length rows);
  (* Delay column parses as a percentage. *)
  List.iter
    (fun row ->
      let pct = List.nth row 5 in
      check_bool "percent cell" true (String.length pct > 0 && pct.[String.length pct - 1] = '%'))
    rows

(* {1 Benchguard} *)

let with_json contents f =
  let file = Filename.temp_file "benchguard" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc contents;
      close_out oc;
      f file)

let test_benchguard_verdicts () =
  with_json {|{"tput": 900.0, "reads": 5000, "extra": 1}|} (fun current ->
      with_json {|{"tput": 1000.0, "reads": 1000}|} (fun baseline ->
          (* tput fell 10% exactly (at the floor, not below): ok.
             reads improved 5x: ok. *)
          (match
             Benchguard.check ~current ~baseline ~keys:[ "tput"; "reads" ]
               ~max_regression_pct:10.0
           with
          | Benchguard.Ok_all [ t; r ] ->
              check_bool "tput at floor passes" false t.Benchguard.vd_regressed;
              check_bool "improvement passes" false r.Benchguard.vd_regressed;
              check_int "exit code" 0 (Benchguard.exit_code (Benchguard.Ok_all [ t; r ]))
          | o ->
              Alcotest.failf "expected Ok_all: %s"
                (Format.asprintf "%a" Benchguard.pp_summary o));
          (* Tighten the tolerance: tput now regresses, reads still ok,
             and the summary names exactly the regressed key. *)
          match
            Benchguard.check ~current ~baseline ~keys:[ "tput"; "reads" ]
              ~max_regression_pct:5.0
          with
          | Benchguard.Regressed vs as r ->
              Alcotest.(check (list string))
                "regressed keys" [ "tput" ]
                (Benchguard.regressed_keys vs);
              check_int "exit code" 1 (Benchguard.exit_code r);
              check_bool "summary names the key" true
                (let s = Format.asprintf "%a" Benchguard.pp_summary r in
                 String.length s >= 4
                 && List.exists
                      (fun i -> String.sub s i 4 = "tput")
                      (List.init (String.length s - 3) Fun.id))
          | o ->
              Alcotest.failf "expected Regressed: %s"
                (Format.asprintf "%a" Benchguard.pp_summary o)))

let test_benchguard_bad_input () =
  with_json {|{"tput": 1000.0}|} (fun good ->
      (* Missing key. *)
      (match
         Benchguard.check ~current:good ~baseline:good ~keys:[ "nope" ]
           ~max_regression_pct:10.0
       with
      | Benchguard.Bad_input _ as r -> check_int "exit code" 1 (Benchguard.exit_code r)
      | _ -> Alcotest.fail "missing key accepted");
      (* Non-numeric key. *)
      with_json {|{"tput": "fast"}|} (fun stringy ->
          match
            Benchguard.check ~current:stringy ~baseline:good ~keys:[ "tput" ]
              ~max_regression_pct:10.0
          with
          | Benchguard.Bad_input _ -> ()
          | _ -> Alcotest.fail "non-numeric key accepted");
      (* Unreadable file. *)
      match
        Benchguard.check ~current:"/nonexistent/bench.json" ~baseline:good
          ~keys:[ "tput" ] ~max_regression_pct:10.0
      with
      | Benchguard.Bad_input _ -> ()
      | _ -> Alcotest.fail "missing file accepted")

let tc name f = Alcotest.test_case name `Quick f
let stc name f = Alcotest.test_case name `Slow f

let suite =
  [
    ( "harness.driver",
      [
        tc "measurement window accounting" test_driver_counts_only_measure_window;
        tc "single/multi split" test_driver_single_multi_split;
        tc "ramcast runner" test_ramcast_runner;
        tc "null app" test_null_app_isolates_coordination;
      ] );
    ( "harness.benchguard",
      [
        tc "verdicts and regressed-key summary" test_benchguard_verdicts;
        tc "bad input rejected" test_benchguard_bad_input;
      ] );
    ( "harness.experiments",
      [
        stc "fig6 shape" test_fig6_shape;
        stc "fig7 shape" test_fig7_shape;
        stc "fig8 shape" test_fig8_shape;
        stc "table1 shape" test_table1_shape;
      ] );
  ]

let () = Alcotest.run "heron_harness" suite
