(* The Heron benchmark runner.

     run.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     run.exe [--seed N] [--seconds S] [--trace 0|1]     every workload, one process each
     run.exe --smoke [--spec BENCHMARK.json]            every workload at 1/50 length
     run.exe compare [--spec F] --base F... --head F... parent versus change

   The last line of standard output is one JSON object: {"correct",
   "attempted", "failed", "metrics"}, where the metrics are the
   end-to-end ones (--trace 0) or the per-layer ones (--trace 1). A
   failed check prints the result with "correct": false and exits 1. *)

open Heron_stats
module Json = Heron_obs.Json

type metric = string * string * float (* name, unit, value *)

let median = Compare.median

(* Pass [i] of a run with seed [seed]: the engine, every client and the
   arrival process draw from this. *)
let pass_seed seed i = (seed * 1000) + i

let pooled pick outcomes =
  List.fold_left
    (fun acc o -> Sample_set.merge acc (pick o.Pass.rc))
    (Sample_set.create ()) outcomes

(* Virtual-time metrics pool every pass's samples; set-up time and
   memory are medians over passes. *)
let end_to_end (outcomes : Pass.outcome list) : metric list =
  let lat = pooled (fun rc -> rc.Pass.lat) outcomes in
  let writes = pooled (fun rc -> rc.Pass.write_lat) outcomes in
  let us s q = float_of_int (Sample_set.percentile s q) /. 1e3 in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let completed = sum (fun o -> o.Pass.rc.Pass.completed) in
  [
    ( "tput_tps",
      "req/s",
      float_of_int completed
      /. Heron_sim.Time_ns.to_s_f (sum (fun o -> o.Pass.measure_ns)) );
    ("lat_mean_us", "us", Sample_set.mean lat /. 1e3);
    ("lat_p99_us", "us", us lat 99.);
    ("lat_p999_us", "us", us lat 99.9);
    ("write_p99_us", "us", us writes 99.);
    ("setup_s", "s", median (List.map (fun o -> o.Pass.setup_s) outcomes));
    ("heap_live_mb", "MB", median (List.map (fun o -> o.Pass.live_mb) outcomes));
  ]

(* Figures printed for reading but not gated: the median, the sample
   counts behind the percentiles, the simulator's speed and each
   workload's own numbers (medians over passes). *)
let notes (outcomes : Pass.outcome list) =
  let lat = pooled (fun rc -> rc.Pass.lat) outcomes in
  let multi = pooled (fun rc -> rc.Pass.multi_lat) outcomes in
  let count pick =
    List.fold_left (fun acc o -> acc + Sample_set.count (pick o.Pass.rc)) 0 outcomes
    |> float_of_int
  in
  [
    ("lat_p50_us", float_of_int (Sample_set.median lat) /. 1e3, "us");
    ( "sim.req_per_cpu_s",
      median
        (List.map
           (fun o -> float_of_int o.Pass.rc.Pass.completed /. o.Pass.run_cpu_s)
           outcomes),
      "req/cpu-s" );
    ("lat_n", count (fun rc -> rc.Pass.lat), "samples");
    ("write_n", count (fun rc -> rc.Pass.write_lat), "samples");
  ]
  @ (if Sample_set.is_empty multi then []
     else [ ("multi_p50_us", float_of_int (Sample_set.median multi) /. 1e3, "us") ])
  @
  let report = List.concat_map (fun o -> o.Pass.report) outcomes in
  List.map
    (fun (name, _, unit_) ->
      let vs =
        List.filter_map (fun (n, v, _) -> if n = name then Some v else None) report
      in
      (name, median vs, unit_))
    (List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) report)

let expectation_checks (w : Workloads.t) (o : Pass.outcome) =
  let figures = Layers.registry o in
  List.map
    (fun (name, e) ->
      let _, _, v = List.find (fun (n, _, _) -> n = name) figures in
      let ok, rel =
        match e with
        | Workloads.At_least x -> (v >= x, Printf.sprintf ">= %g" x)
        | Workloads.Above x -> (v > x, Printf.sprintf "> %g" x)
      in
      ( name,
        if ok then Ok () else Error (Printf.sprintf "%s = %g, expected %s" name v rel) ))
    w.Workloads.expect

(* The traced pass must reproduce the untraced pass's virtual-time
   results exactly: tracing records no virtual time. *)
let same_virtual (a : Pass.outcome) (b : Pass.outcome) =
  let ra = a.Pass.rc and rb = b.Pass.rc in
  if
    ra.Pass.completed = rb.Pass.completed
    && ra.Pass.attempted = rb.Pass.attempted
    && Sample_set.values ra.Pass.lat = Sample_set.values rb.Pass.lat
    && Sample_set.values ra.Pass.write_lat = Sample_set.values rb.Pass.write_lat
  then Ok ()
  else
    Error
      (Printf.sprintf "untraced %d completions, traced %d" ra.Pass.completed
         rb.Pass.completed)

type result = {
  metrics : metric list;
  checks : Pass.check list;
  attempted : int;
  failed : int;
  notes : (string * float * string) list;
}

let run_untraced (w : Workloads.t) ~seed ~passes ~length =
  let outcomes =
    List.init passes (fun i ->
        w.Workloads.run ~seed:(pass_seed seed i) ~traced:false ~length)
  in
  {
    metrics = end_to_end outcomes;
    checks =
      List.concat_map (fun o -> o.Pass.checks @ expectation_checks w o) outcomes;
    attempted = List.fold_left (fun acc o -> acc + o.Pass.rc.Pass.attempted) 0 outcomes;
    failed = List.fold_left (fun acc o -> acc + Pass.failed o.Pass.rc) 0 outcomes;
    notes = notes outcomes;
  }

let run_traced (w : Workloads.t) ~seed ~length ~budget_s =
  let t0 = Unix.gettimeofday () in
  let plain = w.Workloads.run ~seed:(pass_seed seed 0) ~traced:false ~length in
  let traced = w.Workloads.run ~seed:(pass_seed seed 0) ~traced:true ~length in
  (* The Bechamel step gets what is left of the run's budget. *)
  let left = budget_s -. (Unix.gettimeofday () -. t0) in
  let micro = Micro.run ~quota_s:(Float.min 1.0 (Float.max 0.05 (left /. 6.))) in
  {
    metrics = Layers.all ~plain ~traced ~micro;
    checks =
      plain.Pass.checks @ traced.Pass.checks
      @ expectation_checks w traced
      @ [
          ("traced_equals_untraced", same_virtual plain traced);
          ("exact_attribution", Layers.attribution_check traced);
        ];
    attempted = traced.Pass.rc.Pass.attempted;
    failed = Pass.failed traced.Pass.rc;
    notes = notes [ traced ];
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (fun (_, c) -> Result.is_ok c) r.checks));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
             r.metrics) );
    ]

let print_report r =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-32s %16.4f %s\n" name v unit_)
    r.metrics;
  List.iter (fun (name, v, unit_) -> Printf.printf "  (%s %.4f %s)\n" name v unit_) r.notes;
  let failed = List.filter (fun (_, c) -> Result.is_error c) r.checks in
  Printf.printf "  checks: %d run, %d failed\n" (List.length r.checks) (List.length failed);
  List.iter
    (fun (name, c) ->
      match c with Error e -> Printf.printf "  FAILED %s: %s\n" name e | Ok () -> ())
    failed

let run_one (w : Workloads.t) ~seed ~seconds ~trace ~out =
  let t0 = Unix.gettimeofday () in
  let passes = max 1 (int_of_float (Float.round (seconds /. w.Workloads.pass_s))) in
  let r =
    if trace then run_traced w ~seed ~length:1.0 ~budget_s:seconds
    else run_untraced w ~seed ~passes ~length:1.0
  in
  Printf.printf "== %s seed %d %s: %.1f s wall ==\n" w.Workloads.name seed
    (if trace then "traced (per-layer)"
     else Printf.sprintf "untraced, %d passes (end-to-end)" passes)
    (Unix.gettimeofday () -. t0);
  print_report r;
  let json = result_json r in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Json.to_channel oc
            (Json.Obj
               [
                 ("workload", Json.String w.Workloads.name);
                 ("seed", Json.Int seed);
                 ("trace", Json.Int (if trace then 1 else 0));
                 ("result", json);
               ]);
          output_char oc '\n'))
    out;
  print_endline (Json.to_string json);
  if List.for_all (fun (_, c) -> Result.is_ok c) r.checks then 0 else 1

(* Every workload in its own process, one after another; the summary
   line prefixes each metric with its workload. *)
let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let rd, wr = Unix.pipe () in
        let args =
          [|
            Sys.executable_name; "--workload"; w.Workloads.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
          |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let rec lines last =
          match input_line ic with
          | l ->
              print_endline l;
              lines l
          | exception End_of_file -> last
        in
        let last = lines "" in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        (w.Workloads.name, Json.parse_exn last, status = Unix.WEXITED 0))
      Workloads.all
  in
  let total k =
    List.fold_left
      (fun acc (_, j, _) ->
        match Json.member k j with Some (Json.Int i) -> acc + i | _ -> acc)
      0 results
  in
  let summary =
    Json.Obj
      [
        ("correct", Json.Bool (List.for_all (fun (_, _, ok) -> ok) results));
        ("attempted", Json.Int (total "attempted"));
        ("failed", Json.Int (total "failed"));
        ( "metrics",
          Json.Obj
            (List.concat_map
               (fun (name, j, _) ->
                 match Json.member "metrics" j with
                 | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (name ^ "/" ^ k, v)) kvs
                 | _ -> [])
               results) );
      ]
  in
  print_endline (Json.to_string summary);
  if List.for_all (fun (_, _, ok) -> ok) results then 0 else 1

(* Every workload at 1/50 of its length, untraced and traced, in this
   process: every metric BENCHMARK.json declares must come out with its
   unit, and every check must pass. *)
let smoke ~spec =
  let spec = Spec.load spec in
  let missing declared (r : result) =
    List.filter_map
      (fun (m : Spec.metric) ->
        match List.find_opt (fun (n, _, _) -> n = m.Spec.name) r.metrics with
        | Some (_, u, v) when u = m.Spec.unit_ && Float.is_finite v -> None
        | Some (_, u, v) -> Some (Printf.sprintf "%s (%g %s)" m.Spec.name v u)
        | None -> Some m.Spec.name)
      declared
  in
  let length = 1. /. 50. in
  let problems =
    List.concat_map
      (fun (w : Workloads.t) ->
        let plain = run_untraced w ~seed:1 ~passes:1 ~length in
        let traced = run_traced w ~seed:1 ~length ~budget_s:0. in
        let where = w.Workloads.name in
        List.map (fun m -> where ^ ": missing or bad " ^ m)
          (missing spec.Spec.end_to_end plain @ missing spec.Spec.per_layer traced)
        @ List.filter_map
            (fun (name, c) ->
              match c with
              | Error e -> Some (Printf.sprintf "%s: %s: %s" where name e)
              | Ok () -> None)
            (plain.checks @ traced.checks))
      Workloads.all
  in
  List.iter print_endline problems;
  Printf.printf "smoke: %d workloads, %d problems\n" (List.length Workloads.all)
    (List.length problems);
  if problems = [] then 0 else 1

let usage () =
  prerr_endline
    "usage: run.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
    \                [--out FILE]\n\
    \       run.exe --smoke [--spec BENCHMARK.json]\n\
    \       run.exe compare [--spec BENCHMARK.json] --base FILE... --head FILE...";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let spec = ref "BENCHMARK.json" in
  let code =
    match args with
    | "compare" :: rest ->
        let side = ref None and base = ref [] and head = ref [] in
        let rec go = function
          | "--spec" :: f :: rest ->
              spec := f;
              go rest
          | "--base" :: rest ->
              side := Some base;
              go rest
          | "--head" :: rest ->
              side := Some head;
              go rest
          | f :: rest -> (
              match !side with
              | Some l ->
                  l := !l @ [ f ];
                  go rest
              | None -> usage ())
          | [] -> ()
        in
        go rest;
        if !base = [] || !head = [] then usage ();
        Compare.run ~spec:!spec ~base:!base ~head:!head
    | _ ->
        let workload = ref None and seed = ref 1 and seconds = ref 20. in
        let trace = ref false and out = ref None and smoke_mode = ref false in
        let rec go = function
          | "--workload" :: w :: rest ->
              workload := Some w;
              go rest
          | "--seed" :: n :: rest ->
              seed := int_of_string n;
              go rest
          | "--seconds" :: s :: rest ->
              seconds := float_of_string s;
              go rest
          | "--trace" :: (("0" | "1") as t) :: rest ->
              trace := t = "1";
              go rest
          | "--traced" :: rest ->
              trace := true;
              go rest
          | "--out" :: f :: rest ->
              out := Some f;
              go rest
          | "--spec" :: f :: rest ->
              spec := f;
              go rest
          | "--smoke" :: rest ->
              smoke_mode := true;
              go rest
          | [] -> ()
          | _ -> usage ()
        in
        (try go args with Failure _ -> usage ());
        if !smoke_mode then smoke ~spec:!spec
        else
          match !workload with
          | None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace
          | Some name -> (
              match Workloads.find name with
              | Some w -> run_one w ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
              | None ->
                  Printf.eprintf "unknown workload %S; known: %s\n" name
                    (String.concat ", "
                       (List.map (fun w -> w.Workloads.name) Workloads.all));
                  2)
  in
  exit code
