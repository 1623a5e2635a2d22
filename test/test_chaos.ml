(* Tests for the chaos harness itself — schedule generation, JSON
   (de)serialization, the driver's failure envelope, the shrinker — and
   the regression corpus: every test/corpus/*.json is a schedule that
   once broke the system, pinned so it replays forever. *)

open Heron_chaos
module Metrics = Heron_obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f


(* {1 Schedules} *)

(* Generated schedules are well-formed by construction: that is what
   lets the driver treat any failure under one as the system's fault. *)
let generator_valid_prop =
  QCheck.Test.make ~name:"generated schedules validate" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sc = Schedule.generate ~seed in
      match Schedule.validate sc with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let test_generate_deterministic () =
  check_bool "same seed, same schedule" true
    (Schedule.generate ~seed:42 = Schedule.generate ~seed:42);
  check_bool "different seeds differ somewhere" true
    (List.exists
       (fun s -> Schedule.generate ~seed:s <> Schedule.generate ~seed:(s + 1))
       [ 0; 1; 2; 3; 4 ])

let test_generate_envelope () =
  (* Structural liveness envelope: follower indices only, at most one
     replica down at any instant. *)
  for seed = 0 to 199 do
    let sc = Schedule.generate ~seed in
    let down = ref None in
    List.iter
      (fun e ->
        match e with
        | Schedule.Crash { part; idx; _ } ->
            if idx = 0 then Alcotest.failf "seed %d crashes a leader" seed;
            (match !down with
            | Some _ -> Alcotest.failf "seed %d overlaps two crashes" seed
            | None -> down := Some (part, idx))
        | Schedule.Restart { part; idx; _ } ->
            if !down <> Some (part, idx) then
              Alcotest.failf "seed %d restarts a live replica" seed;
            down := None
        | _ -> ())
      sc.Schedule.sc_events
  done

(* Generated schedules validate and survive a JSON roundtrip, each under
   a deployment drawn at random so every feature combination is covered. *)
let roundtrip_prop ~name ~count gen =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_bound 100_000) (int_bound 15))
    (fun (seed, bits) ->
      let on i = bits land (1 lsl i) <> 0 in
      let deployment =
        { Schedule.pipeline = on 0; fast_reads = on 1; durability = on 2; longhaul = on 3 }
      in
      let sc = { (gen ~seed) with Schedule.sc_deployment = deployment } in
      match
        Result.bind (Schedule.validate sc) (fun () -> Schedule.of_json (Schedule.to_json sc))
      with
      | Ok sc' -> sc' = Schedule.normalize sc
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let json_roundtrip_prop =
  roundtrip_prop ~name:"of_json (to_json s) = Ok s" ~count:300 Schedule.generate

(* The reconfig generator keeps the same liveness envelope and always
   produces migrations timed into the crash/restart windows. *)
let reconfig_generator_prop =
  roundtrip_prop ~name:"reconfig schedules validate and roundtrip" ~count:300
    Schedule.generate_reconfig

let test_reconfig_generator_overlap () =
  for seed = 0 to 199 do
    let sc = Schedule.generate_reconfig ~seed in
    let migrations =
      List.filter
        (function Schedule.Migrate _ -> true | _ -> false)
        sc.Schedule.sc_events
    in
    if migrations = [] then Alcotest.failf "seed %d has no migrations" seed;
    (* Every migration sits inside some crash..restart window (with the
       generator's slop on both sides). *)
    let windows =
      let rec pair acc = function
        | Schedule.Crash { at = c; _ } :: rest -> (
            match
              List.find_opt (function Schedule.Restart _ -> true | _ -> false) rest
            with
            | Some (Schedule.Restart { at = r; _ }) -> pair ((c, r) :: acc) rest
            | _ -> acc)
        | _ :: rest -> pair acc rest
        | [] -> acc
      in
      pair [] sc.Schedule.sc_events
    in
    List.iter
      (function
        | Schedule.Migrate { at; _ } ->
            if
              not
                (List.exists
                   (fun (c, r) -> at >= c - 200_000 && at <= r + 300_000)
                   windows)
            then Alcotest.failf "seed %d: migration outside every crash window" seed
        | _ -> ())
      sc.Schedule.sc_events
  done

(* The elastic generator (DESIGN.md §15) carries the topology in the
   schedule itself ([sc_shards]) and times shard splits/merges into
   the crash/restart windows, so crashes land mid-split. *)
let elastic_generator_prop =
  roundtrip_prop ~name:"elastic schedules validate and roundtrip" ~count:300
    Schedule.generate_elastic

let test_elastic_generator_shape () =
  for seed = 0 to 199 do
    let sc = Schedule.generate_elastic ~seed in
    if sc.Schedule.sc_shards <= 0 then
      Alcotest.failf "seed %d runs with the topology off" seed;
    let shard_ops =
      List.filter
        (function Schedule.Split _ | Schedule.Merge _ -> true | _ -> false)
        sc.Schedule.sc_events
    in
    if shard_ops = [] then Alcotest.failf "seed %d has no shard operations" seed
  done;
  (* Splits and merges do land inside crash windows somewhere in the
     family — the whole point of the generator. *)
  let overlapping = ref 0 in
  for seed = 0 to 199 do
    let sc = Schedule.generate_elastic ~seed in
    let down = ref [] in
    List.iter
      (fun e ->
        match e with
        | Schedule.Crash { at = c; _ } -> down := (c, max_int) :: !down
        | Schedule.Restart { at = r; _ } -> (
            match !down with
            | (c, _) :: rest -> down := (c, r) :: rest
            | [] -> ())
        | _ -> ())
      sc.Schedule.sc_events;
    if
      List.exists
        (function
          | Schedule.Split { at; _ } | Schedule.Merge { at; _ } ->
              List.exists (fun (c, r) -> at >= c && at <= r) !down
          | _ -> false)
        sc.Schedule.sc_events
    then incr overlapping
  done;
  if !overlapping < 50 then
    Alcotest.failf "only %d of 200 seeds crash mid-reshard" !overlapping

(* [sc] as a pin written before the fields [keys] existed decodes. *)
let decode_without keys sc =
  match Schedule.to_json sc with
  | Heron_obs.Json.Obj fields -> (
      let old = List.filter (fun (k, _) -> not (List.mem k keys)) fields in
      match Schedule.of_json (Heron_obs.Json.Obj old) with
      | Ok sc' -> sc'
      | Error msg -> Alcotest.fail msg)
  | _ -> Alcotest.fail "to_json did not produce an object"

(* Pre-topology pins (no "shards" field) decode to sc_shards = 0: the
   topology stays off and old corpus files replay unchanged. *)
let test_elastic_field_back_compat () =
  let sc = Schedule.generate ~seed:3 in
  check_int "classic generator leaves topology off" 0 sc.Schedule.sc_shards;
  check_int "decodes as off" 0 (decode_without [ "shards" ] sc).Schedule.sc_shards

(* Pins from before the deployment field decode to every feature off,
   the deployment they were judged under. *)
let test_deployment_field_back_compat () =
  let sc = decode_without [ "deployment" ] (Schedule.generate_longhaul ~seed:3) in
  check_bool "decodes to no features" true
    (sc.Schedule.sc_deployment = Schedule.no_features)

(* The longhaul generator (DESIGN.md §13) trades event density for
   duration: minutes of virtual time, paced traffic, repeated
   crash/rejoin cycles with migrations racing the down windows. *)
let longhaul_generator_prop =
  roundtrip_prop ~name:"longhaul schedules validate and roundtrip" ~count:100
    Schedule.generate_longhaul

let test_longhaul_generator_shape () =
  for seed = 0 to 49 do
    let sc = Schedule.generate_longhaul ~seed in
    let crashes =
      List.length
        (List.filter (function Schedule.Crash _ -> true | _ -> false)
           sc.Schedule.sc_events)
    in
    if crashes < 8 then Alcotest.failf "seed %d: only %d rejoin cycles" seed crashes;
    if
      not
        (List.exists
           (function Schedule.Migrate _ -> true | _ -> false)
           sc.Schedule.sc_events)
    then Alcotest.failf "seed %d has no migrations" seed;
    if sc.Schedule.sc_horizon_ns < 60_000_000_000 then
      Alcotest.failf "seed %d horizon under a virtual minute" seed;
    if sc.Schedule.sc_think_ns <= 0 then
      Alcotest.failf "seed %d traffic not paced" seed;
    (* Every event fits the horizon — otherwise it injects into a
       finished run. *)
    List.iter
      (fun e ->
        if Schedule.event_end e > sc.Schedule.sc_horizon_ns then
          Alcotest.failf "seed %d: event past the horizon" seed)
      sc.Schedule.sc_events
  done

let test_old_pins_parse_without_horizon () =
  (* Pins written before sc_horizon_ns/sc_think_ns existed must keep
     loading with the classic defaults. *)
  let sc = decode_without [ "horizon_ns"; "think_ns" ] (Schedule.generate ~seed:3) in
  check_int "default horizon" Schedule.default_horizon_ns sc.Schedule.sc_horizon_ns;
  check_int "default think" 0 sc.Schedule.sc_think_ns

(* [sc] saved to a temporary file and loaded back. *)
let through_file sc =
  let file = Filename.temp_file "chaos_sched" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Schedule.save sc ~file;
      match Schedule.load ~file with Ok sc' -> sc' | Error msg -> Alcotest.fail msg)

let test_file_roundtrip () =
  let sc = Schedule.generate ~seed:7 in
  check_bool "load inverts save" true (through_file sc = sc)

let test_json_rejects_garbage () =
  let reject j =
    match Schedule.of_json j with
    | Ok _ -> Alcotest.fail "bad schedule accepted"
    | Error _ -> ()
  in
  reject (Heron_obs.Json.Obj [ ("version", Heron_obs.Json.Int 99) ]);
  reject (Heron_obs.Json.Obj [ ("version", Heron_obs.Json.Int 1) ]);
  (match Schedule.load ~file:"/nonexistent/chaos.json" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  (* An unknown event kind must not be silently dropped. *)
  let sc = Schedule.generate ~seed:1 in
  match Schedule.to_json sc with
  | Heron_obs.Json.Obj fields ->
      let fields =
        List.map
          (function
            | "events", Heron_obs.Json.List _ ->
                ( "events",
                  Heron_obs.Json.List
                    [ Heron_obs.Json.Obj
                        [ ("kind", Heron_obs.Json.String "meteor_strike") ] ] )
            | f -> f)
          fields
      in
      reject (Heron_obs.Json.Obj fields)
  | _ -> Alcotest.fail "to_json did not produce an object"

let test_validate_catches () =
  let sc = Schedule.generate ~seed:0 in
  let bad events = { sc with Schedule.sc_events = events } in
  let refuses sc' =
    match Schedule.validate sc' with
    | Ok () -> Alcotest.fail "invalid schedule validated"
    | Error _ -> ()
  in
  refuses (bad [ Schedule.Crash { part = 0; idx = 0; at = 10 } ]);
  refuses (bad [ Schedule.Crash { part = 9; idx = 1; at = 10 } ]);
  refuses
    (bad
       [ Schedule.Crash { part = 0; idx = 1; at = 10 };
         Schedule.Crash { part = 0; idx = 1; at = 20 } ]);
  refuses (bad [ Schedule.Restart { part = 0; idx = 1; at = 10 } ]);
  refuses
    (bad
       [ Schedule.Delay_link
           { src = (0, 1); dst = (0, 1); extra_ns = 1; at = 0; span = 1 } ]);
  (* Unsorted events. *)
  refuses
    (bad
       [ Schedule.Pause_replica { part = 0; idx = 1; extra_ns = 1; at = 50; span = 1 };
         Schedule.Pause_replica { part = 0; idx = 2; extra_ns = 1; at = 10; span = 1 } ])

(* {1 Driver} *)

(* Every schedule [gen] derives from [seeds] completes all its
   operations and passes every verdict. *)
let seeds_complete gen seeds () =
  List.iter
    (fun seed ->
      let sc = gen ~seed in
      match Driver.run sc with
      | Driver.Completed { completed } ->
          check_int (Printf.sprintf "seed %d op count" seed)
            (sc.Schedule.sc_clients * sc.Schedule.sc_ops)
            completed
      | Driver.Failed f ->
          Alcotest.failf "seed %d: %s" seed
            (Format.asprintf "%a" Driver.pp_failure f))
    seeds

(* A handful of generated schedules complete and pass all checks; the
   full sweep lives in scripts/check.sh and CI. *)
let test_driver_clean_seeds = seeds_complete Schedule.generate [ 0; 1; 2 ]

(* A handful of elastic schedules — splits and merges racing crashes
   and laggers — complete and linearize; the 100-seed sweep lives in
   scripts/check.sh and CI. *)
let test_driver_elastic_seeds = seeds_complete Schedule.generate_elastic [ 0; 1; 7 ]

let test_driver_deterministic () =
  let sc = Schedule.generate ~seed:5 in
  check_bool "same schedule, same outcome" true (Driver.run sc = Driver.run sc)

(* A counter of the registry one run's deployment was built on. *)
let run_counter sys name =
  Metrics.counter_value
    (Metrics.counter (Heron_core.System.config sys).Heron_core.Config.metrics name)

let test_driver_skips_unsafe_injections () =
  (* Events outside the envelope — crashing the multicast leader,
     crashing into a dead partition-mate, restarting a live replica —
     are skipped, not performed: any subset of a failing schedule (a
     shrinking candidate) must still be a fair test. *)
  let sc = Schedule.generate ~seed:3 in
  let sc =
    Schedule.normalize
      { sc with
        Schedule.sc_events =
          [ Schedule.Crash { part = 0; idx = 0; at = 200_000 };
            Schedule.Restart { part = 0; idx = 1; at = 300_000 };
            Schedule.Crash { part = 0; idx = 1; at = 400_000 };
            Schedule.Crash { part = 0; idx = 2; at = 600_000 };
            Schedule.Restart { part = 0; idx = 1; at = 900_000 } ] }
  in
  let skipped = ref 0 in
  let inspect sys = skipped := run_counter sys "chaos.injections_skipped" in
  (match Driver.run ~inspect sc with
  | Driver.Completed _ -> ()
  | Driver.Failed f ->
      Alcotest.failf "envelope run failed: %s"
        (Format.asprintf "%a" Driver.pp_failure f));
  check_bool "injections were skipped" true (!skipped > 0)

(* {2 Durability refinement (DESIGN.md §13)}

   Checkpointing + truncation must refine to a no-op: the same schedule
   with durability on and off completes identically and linearizes
   identically. For increment-only workloads the final state is
   order-independent, so it must additionally be byte-identical —
   catching exactly the durability bugs that matter (an update lost
   under truncation, or double-applied after a checkpoint bootstrap). *)

let state_digest sys =
  let buf = Buffer.create 256 in
  Array.iter
    (fun row ->
      let st = Heron_core.Replica.store row.(0) in
      List.iter
        (fun oid ->
          Buffer.add_string buf
            (Bytes.to_string (fst (Heron_core.Versioned_store.get st oid))))
        (Heron_core.Versioned_store.registered_oids st))
    (Heron_core.System.replicas sys);
  Buffer.contents buf

let outcome_kind = function
  | Driver.Completed _ -> "completed"
  | Driver.Failed f -> Driver.failure_kind f

let with_features sc d = { sc with Schedule.sc_deployment = d }
let durable = { Schedule.no_features with Schedule.durability = true }
let fast_reads = { Schedule.no_features with Schedule.fast_reads = true }

let durability_refinement_state_prop =
  QCheck.Test.make
    ~name:"durability on/off: byte-identical state on incr-only workloads"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sc =
        { (Schedule.generate ~seed) with Schedule.sc_workload = Schedule.Incr_all }
      in
      let d_on = ref None and d_off = ref None in
      let o_on =
        Driver.run ~inspect:(fun s -> d_on := Some (state_digest s))
          (with_features sc durable)
      in
      let o_off = Driver.run ~inspect:(fun s -> d_off := Some (state_digest s)) sc in
      match (o_on, o_off) with
      | Driver.Completed { completed = a }, Driver.Completed { completed = b } ->
          if a <> b then QCheck.Test.fail_reportf "seed %d: op counts differ" seed
          else if !d_on = None || !d_on <> !d_off then
            QCheck.Test.fail_reportf "seed %d: final states differ" seed
          else true
      | _ ->
          QCheck.Test.fail_reportf "seed %d: %s (on) vs %s (off)" seed
            (outcome_kind o_on) (outcome_kind o_off))

let durability_refinement_verdict_prop =
  (* Mixed workloads: timing (and thus individual read results) may
     legitimately differ — checkpoint traffic shares QPs with the
     request path — but the verdict must not: durability never turns a
     passing schedule into a stall, divergence, invariant breach or
     linearizability violation. *)
  QCheck.Test.make ~name:"durability on/off: same verdict on generated schedules"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sc = Schedule.generate ~seed in
      let k_on = outcome_kind (Driver.run (with_features sc durable)) in
      let k_off = outcome_kind (Driver.run sc) in
      if k_on <> k_off then
        QCheck.Test.fail_reportf "seed %d: %s (on) vs %s (off)" seed k_on k_off
      else true)

(* {2 Fast-read refinement (DESIGN.md §14)}

   Lease-based local reads must refine to the ordered path: the same
   schedule with fast reads on and off reaches the same verdict — in
   particular, a schedule that linearizes through the multicast still
   linearizes when its reads are served from lease-holding replicas'
   local stores under crashes, restarts and migrations. Each run's
   history is checked independently, so the "on" leg re-proves
   linearizability of the fast path itself, not just agreement with the
   "off" leg. *)

let fast_reads_refinement_verdict_prop =
  QCheck.Test.make ~name:"fast reads on/off: same verdict on generated schedules"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sc = Schedule.generate ~seed in
      let k_on = outcome_kind (Driver.run (with_features sc fast_reads)) in
      let k_off = outcome_kind (Driver.run sc) in
      if k_on <> k_off then
        QCheck.Test.fail_reportf "seed %d: %s (on) vs %s (off)" seed k_on k_off
      else true)

let test_fast_reads_serve_locally () =
  (* The refinement property would pass vacuously if the fast path
     never fired; pin that it does. Mixed workloads are read-heavy
     enough that a lease-holding replica serves at least one Get
     locally across a few schedules. *)
  let served = ref 0 in
  let count sys = served := !served + run_counter sys "reads.local_served" in
  List.iter
    (fun seed ->
      let sc = with_features (Schedule.generate ~seed) fast_reads in
      match Driver.run ~inspect:count sc with
      | Driver.Completed _ -> ()
      | Driver.Failed f ->
          Alcotest.failf "fast-read seed %d: %s" seed
            (Format.asprintf "%a" Driver.pp_failure f))
    [ 0; 1; 2 ];
  check_bool "some reads served from leases" true (!served > 0)

(* {2 Longhaul driver} *)

(* Full longhaul runs: minutes of virtual time, repeated
   crash/rejoin/migrate cycles, flat-memory and O(delta)-rejoin verdicts
   on top of linearizability, under the deployment the generator
   records. The wide sweep lives in scripts/check.sh and CI. *)
let test_longhaul_seeds_pass = seeds_complete Schedule.generate_longhaul [ 0; 1 ]

let test_longhaul_flags_nondurable_baseline () =
  (* The whole point of the longhaul verdict: the same schedule without
     durability retains O(history) logs and must fail [Unbounded] —
     proving the bounds actually bite and BENCH_longhaul's baseline
     comparison is honest. The run goes through a saved pin with no
     other input, so the pin carries its deployment. *)
  let sc = Schedule.generate_longhaul ~seed:0 in
  let sc = with_features sc { sc.Schedule.sc_deployment with Schedule.durability = false } in
  match Driver.run (through_file sc) with
  | Driver.Failed (Driver.Unbounded _) -> ()
  | o ->
      Alcotest.failf "non-durable baseline not flagged: %s"
        (Format.asprintf "%a" Driver.pp_outcome o)

let test_failure_kinds_stable () =
  (* The shrinker keys on these strings; changing one silently orphans
     pinned corpus entries. *)
  check_string "stalled" "stalled"
    (Driver.failure_kind (Driver.Stalled { completed = 0; expected = 1 }));
  check_string "diverged" "diverged"
    (Driver.failure_kind (Driver.Diverged { detail = "" }));
  check_string "invariant" "invariant"
    (Driver.failure_kind (Driver.Invariant { part = 0; idx = 0; detail = "" }));
  check_string "not_linearizable" "not_linearizable"
    (Driver.failure_kind (Driver.Not_linearizable { detail = "" }));
  check_string "unbounded" "unbounded"
    (Driver.failure_kind (Driver.Unbounded { detail = "" }));
  check_string "crashed" "crashed"
    (Driver.failure_kind (Driver.Crashed { detail = "" }))

(* {1 Shrinker} *)

let test_shrink_passing_unchanged () =
  (* minimize assumes its input fails; handed a passing schedule it
     must return it unchanged rather than "minimize" to nonsense. *)
  let sc = Schedule.generate ~seed:2 in
  let sc' = Shrink.minimize sc ~kind:"diverged" in
  check_bool "passing schedule unchanged" true (sc' = sc)

(* {1 Regression corpus}

   Every schedule pinned under test/corpus/ once produced a failure
   (before its fix); each must load, validate, and now replay to
   Completed. A regression reappearing shows up here as a named,
   deterministic reproduction — see DESIGN.md for what each pin was. *)

let corpus_files () =
  (* dune runtest runs tests in test/; dune exec runs from the root. *)
  let dir =
    if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
  in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let test_corpus_nonempty () =
  check_bool "corpus has pinned schedules" true (List.length (corpus_files ()) >= 5)

let test_corpus_replays () =
  List.iter
    (fun file ->
      match Schedule.load ~file with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok sc -> (
          (match Schedule.validate sc with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: invalid: %s" file msg);
          (* Pins replay under the deployment they record. *)
          match Driver.run sc with
          | Driver.Completed _ -> ()
          | Driver.Failed f ->
              Alcotest.failf "%s REGRESSED: %s" file
                (Format.asprintf "%a" Driver.pp_failure f)))
    (corpus_files ())

let suite =
  [
    ( "chaos.schedule",
      [
        Qc.test generator_valid_prop;
        tc "generation is deterministic" test_generate_deterministic;
        tc "generated envelope: sequential follower faults" test_generate_envelope;
        Qc.test json_roundtrip_prop;
        Qc.test reconfig_generator_prop;
        tc "reconfig migrations overlap crash windows" test_reconfig_generator_overlap;
        Qc.test elastic_generator_prop;
        tc "elastic generator shape" test_elastic_generator_shape;
        tc "pre-topology pins decode with topology off"
          test_elastic_field_back_compat;
        tc "pre-deployment pins decode with features off"
          test_deployment_field_back_compat;
        Qc.test longhaul_generator_prop;
        tc "longhaul generator shape" test_longhaul_generator_shape;
        tc "pre-durability pins parse (no horizon field)"
          test_old_pins_parse_without_horizon;
        tc "save/load roundtrip" test_file_roundtrip;
        tc "malformed JSON rejected" test_json_rejects_garbage;
        tc "validate catches bad schedules" test_validate_catches;
      ] );
    ( "chaos.driver",
      [
        tc "clean seeds complete" test_driver_clean_seeds;
        tc "elastic seeds complete" test_driver_elastic_seeds;
        tc "runs are deterministic" test_driver_deterministic;
        tc "unsafe injections skipped" test_driver_skips_unsafe_injections;
        tc "failure kinds are stable" test_failure_kinds_stable;
      ] );
    ( "chaos.durability",
      [
        Qc.test durability_refinement_state_prop;
        Qc.test durability_refinement_verdict_prop;
        Alcotest.test_case "longhaul seeds pass" `Slow test_longhaul_seeds_pass;
        tc "non-durable baseline flagged unbounded"
          test_longhaul_flags_nondurable_baseline;
      ] );
    ( "chaos.fast_reads",
      [
        Qc.test fast_reads_refinement_verdict_prop;
        tc "fast path actually serves reads" test_fast_reads_serve_locally;
      ] );
    ( "chaos.shrink",
      [
        tc "passing schedule unchanged" test_shrink_passing_unchanged;
      ] );
    ( "chaos.corpus",
      [ tc "corpus present" test_corpus_nonempty; tc "replay corpus" test_corpus_replays ] );
  ]

let () = Alcotest.run "heron_chaos" suite
