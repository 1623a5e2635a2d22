(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus Bechamel micro-benchmarks of the
   substrate primitives.

     dune exec bench/main.exe            -- all experiments + micro
     dune exec bench/main.exe -- quick   -- shortened windows/sweeps
     dune exec bench/main.exe -- fig4    -- one experiment
     (also: fig5 fig6 fig7 table1 fig8 ablations micro_kv micro;
    `elastic' and `longhaul' are opt-in only and write
    BENCH_elastic.json / BENCH_longhaul.json; an unknown name exits 2)

   Feature performance is measured and gated by the seeded benchmark
   in benchmark/ (BENCHMARK.json), not here.

   Absolute numbers come from the calibrated simulation (DESIGN.md);
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Heron_stats
open Heron_harness

let say fmt = Printf.printf fmt

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  say "[%s: %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

let print_tables ts =
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    ts

(* The experiment tables take [metrics], the registry [--metrics]
   dumps, or [None] for a fresh registry per deployment. *)
let run_fig4 ~metrics ~quick =
  timed "fig4" (fun () -> print_tables [ Experiments.fig4 ?metrics ~quick () ])

let run_fig5 ~metrics ~quick =
  timed "fig5" (fun () -> print_tables [ Experiments.fig5 ?metrics ~quick () ])

let run_fig6 ~metrics ~quick =
  timed "fig6" (fun () ->
      let a, b = Experiments.fig6 ?metrics ~quick () in
      print_tables [ a; b ])

let run_fig7 ~metrics ~quick =
  timed "fig7" (fun () ->
      let a, b = Experiments.fig7 ?metrics ~quick () in
      print_tables [ a; b ])

let run_table1 ~metrics ~quick =
  timed "table1" (fun () -> print_tables [ Experiments.table1 ?metrics ~quick () ])

let run_fig8 ~metrics ~quick =
  timed "fig8" (fun () -> print_tables [ Experiments.fig8 ?metrics ~quick () ])

let run_ablations ~metrics ~quick =
  timed "ablations" (fun () ->
      print_tables
        [
          Experiments.ablation_grace ?metrics ~quick ();
          Experiments.ablation_parallel ?metrics ~quick ();
        ])

let run_micro_kv ~metrics ~quick =
  timed "micro_kv" (fun () ->
      let a, b = Experiments.micro_kv ?metrics ~quick () in
      print_tables [ a; b ])

(* {1 Elastic ramp bench}

   Closed-loop write traffic whose client population grows 10x
   mid-run — the launch-day ramp. The elastic deployment (DESIGN.md
   §15) starts with two shards over a six-group pool and lets the
   rebalancer's split tier recruit dormant groups as load saturates;
   the static deployment is provisioned at the same initial serving
   capacity (two partitions) and has nowhere to grow. Post-ramp the
   elastic run must out-serve the static one with at least one split
   landing mid-run — the acceptance bar BENCH_elastic.json records and
   check.sh guards against the committed quick-mode baseline. *)

let run_elastic ~quick =
  timed "elastic" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let open Heron_kv in
      let t0 = Unix.gettimeofday () in
      let replicas = 3 and keys = 96 in
      let pool = 8 and provisioned = 2 in
      let base_clients = 2 and ramp_factor = 10 in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      let adapt = Time_ns.ms (if quick then 6 else 15) in
      let run ~partitions ~elastic =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:31 () in
        let cfg =
          {
            (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            reconfig = { Config.enabled = elastic };
            topology =
              (if elastic then
                 { Config.topo_enabled = true; topo_shards = provisioned }
               else Config.default_topology);
          }
        in
        let sys =
          System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init:0L)
        in
        System.start sys;
        let phase = ref None in
        let phases = [| Sample_set.create (); Sample_set.create () |] in
        let completed = [| ref 0; ref 0 |] in
        let spawn_client c =
          let rng = Random.State.make [| c; 0xE1A5; 0x11C |] in
          let node =
            System.new_client_node sys ~name:(Printf.sprintf "el-%d" c)
          in
          Heron_rdma.Fabric.spawn_on node (fun () ->
              let rec loop () =
                let k = Random.State.int rng keys in
                let t0 = Engine.self_now () in
                ignore (System.submit sys ~from:node (Kv_app.Add (k, 1L)));
                let t1 = Engine.self_now () in
                (match !phase with
                | None -> ()
                | Some p ->
                    incr completed.(p);
                    Sample_set.add phases.(p) (t1 - t0));
                loop ()
              in
              loop ())
        in
        for c = 0 to base_clients - 1 do
          spawn_client c
        done;
        let rb =
          if elastic then
            Some
              (Heron_reconfig.Rebalancer.start
                 ~policy:
                   {
                     Heron_reconfig.Rebalancer.default_policy with
                     (* Tier 1 object moves cannot relieve uniform
                        saturation; park it and let the split/merge
                        tiers carry the ramp. *)
                     period_ns = Time_ns.us 500;
                     imbalance_x100 = 1_000_000;
                     split_min_accesses = 40;
                     split_patience = 1;
                     merge_max_accesses = 0;
                   }
                 sys)
          else None
        in
        Engine.run_until eng (Engine.now eng + warmup);
        phase := Some 0;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        (* The floodgates open: traffic grows [ramp_factor]x. *)
        for c = base_clients to (base_clients * ramp_factor) - 1 do
          spawn_client c
        done;
        Engine.run_until eng (Engine.now eng + adapt);
        phase := Some 1;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        Option.iter Heron_reconfig.Rebalancer.stop rb;
        let tput p = float_of_int !(completed.(p)) /. Time_ns.to_s_f measure in
        let c name =
          Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter reg name)
        in
        let g name =
          Heron_obs.Metrics.gauge_value (Heron_obs.Metrics.gauge reg name)
        in
        ( tput 0,
          tput 1,
          float_of_int (Sample_set.percentile phases.(1) 50.) /. 1e3,
          c "topology.splits",
          g "topology.shards",
          Placement.epoch (Placement.view (System.directory sys)) )
      in
      let s_pre, s_post, s_p50, _, _, _ =
        run ~partitions:provisioned ~elastic:false
      in
      let e_pre, e_post, e_p50, splits, shards, epoch =
        run ~partitions:pool ~elastic:true
      in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "elastic");
            ("quick", Heron_obs.Json.Bool quick);
            ("static_preramp_tput_tps", Heron_obs.Json.Float s_pre);
            ("static_postramp_tput_tps", Heron_obs.Json.Float s_post);
            ("static_postramp_p50_us", Heron_obs.Json.Float s_p50);
            ("elastic_preramp_tput_tps", Heron_obs.Json.Float e_pre);
            ("elastic_postramp_tput_tps", Heron_obs.Json.Float e_post);
            ("elastic_postramp_p50_us", Heron_obs.Json.Float e_p50);
            ("splits", Heron_obs.Json.Int splits);
            ("final_shards", Heron_obs.Json.Int shards);
            ("final_epoch", Heron_obs.Json.Int epoch);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      let oc = open_out "BENCH_elastic.json" in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Heron_obs.Json.to_channel oc json;
          output_char oc '\n');
      say
        "elastic: post-ramp %.0f tps elastic vs %.0f tps static (pre-ramp %.0f \
         vs %.0f), %d splits, %d shards, epoch %d -> BENCH_elastic.json\n"
        e_post s_post e_pre s_pre splits shards epoch)

(* {1 Long-horizon durability bench}

   Continuous increment traffic over a multi-second virtual horizon
   with two follower bounces — one early (short history) and one late
   (long history). Compares checkpointing on vs off (DESIGN.md §13):
   the update log stays flat under compaction but grows with history
   without it. Rejoin cost is O(delta) either way: the multicast
   reclaims its log behind the applied frontiers with durability on
   or off, so neither rejoin replays the history, and the baseline's
   full-store snapshot of this eight-key store is as small as the
   checkpoint bootstrap. Writes BENCH_longhaul.json; check.sh guards
   the durable throughput and the compaction factor against the
   committed quick-mode baseline. *)

let run_longhaul ~quick =
  timed "longhaul" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let t0 = Unix.gettimeofday () in
      let partitions = 2 and replicas = 3 in
      let clients = 3 in
      let horizon = if quick then Time_ns.s 1 else Time_ns.s 8 in
      let run ~durable =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:47 () in
        let cfg =
          {
            (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            durability =
              { Config.dur_enabled = durable; dur_interval_ns = Time_ns.ms 2 };
          }
        in
        let sys =
          System.create eng ~cfg
            ~app:(Heron_kv.Kv_app.app ~keys:8 ~partitions ~init:0L)
        in
        System.start sys;
        let completed = ref 0 in
        for c = 0 to clients - 1 do
          let node = System.new_client_node sys ~name:(Printf.sprintf "lh-%d" c) in
          Heron_rdma.Fabric.spawn_on node (fun () ->
              let rec loop () =
                ignore (System.submit sys ~from:node (Heron_kv.Kv_app.Incr_all [ 0; 1 ]));
                incr completed;
                loop ()
              in
              loop ())
        done;
        (* Sample the reference replica's retained update-log length:
           the flat-vs-linear signal, straight from the source. *)
        let series = ref [] in
        let sampler = Heron_rdma.Fabric.add_node (System.fabric sys) ~name:"sampler" in
        Heron_rdma.Fabric.spawn_on sampler (fun () ->
            let rec loop () =
              Engine.sleep (horizon / 16);
              series :=
                Update_log.length
                  (Replica.update_log (System.replica sys ~part:0 ~idx:0))
                :: !series;
              loop ()
            in
            loop ());
        (* Read, not resolve: the replica series carry part/idx labels,
           and [find] sums them. *)
        let c name =
          match Heron_obs.Metrics.(find (snapshot reg)) name with
          | Some (Heron_obs.Metrics.Counter_v n) -> n
          | _ -> 0
        in
        (* Rejoin cost: every byte the bounced follower pulls to catch
           up — state-transfer cells plus replayed multicast backlog. *)
        let rejoin_cost () = c "coord.state_transfer_bytes" + c "mcast.rejoin_replay_bytes" in
        let bounce () =
          Heron_rdma.Fabric.crash (Replica.node (System.replica sys ~part:0 ~idx:2));
          Engine.run_until eng (Engine.now eng + (horizon / 16));
          let before = rejoin_cost () in
          System.restart_replica sys ~part:0 ~idx:2;
          Engine.run_until eng (Engine.now eng + (horizon / 8));
          rejoin_cost () - before
        in
        Engine.run_until eng (Engine.now eng + (horizon / 8));
        let rejoin_early = bounce () in
        Engine.run_until eng (Engine.now eng + (horizon / 2));
        let rejoin_late = bounce () in
        let elapsed = Engine.now eng in
        let tput = float_of_int !completed /. Time_ns.to_s_f elapsed in
        let samples = List.rev !series in
        let max_len = List.fold_left max 0 samples in
        (tput, samples, max_len, rejoin_early, rejoin_late, c "durability.checkpoints")
      in
      let d_tput, d_series, d_max, d_early, d_late, ckpts = run ~durable:true in
      let b_tput, _, b_max, b_early, b_late, _ = run ~durable:false in
      let factor_x100 = if d_max > 0 then 100 * b_max / d_max else 0 in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "longhaul");
            ("quick", Heron_obs.Json.Bool quick);
            ("durable_tput_tps", Heron_obs.Json.Float d_tput);
            ("baseline_tput_tps", Heron_obs.Json.Float b_tput);
            ( "durable_log_len_series",
              Heron_obs.Json.List (List.map (fun n -> Heron_obs.Json.Int n) d_series) );
            ("durable_max_log_len", Heron_obs.Json.Int d_max);
            ("baseline_max_log_len", Heron_obs.Json.Int b_max);
            ("compaction_factor_x100", Heron_obs.Json.Int factor_x100);
            ("checkpoints", Heron_obs.Json.Int ckpts);
            ("durable_rejoin_early_bytes", Heron_obs.Json.Int d_early);
            ("durable_rejoin_late_bytes", Heron_obs.Json.Int d_late);
            ("baseline_rejoin_early_bytes", Heron_obs.Json.Int b_early);
            ("baseline_rejoin_late_bytes", Heron_obs.Json.Int b_late);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      let oc = open_out "BENCH_longhaul.json" in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Heron_obs.Json.to_channel oc json;
          output_char oc '\n');
      say
        "longhaul: %.0f tps durable vs %.0f baseline; max log %d vs %d \
         (compaction x%.1f, %d checkpoints); late rejoin %d B durable vs %d B \
         baseline -> BENCH_longhaul.json\n"
        d_tput b_tput d_max b_max
        (float_of_int factor_x100 /. 100.)
        ckpts d_late b_late)

(* {1 Micro-benchmarks (Bechamel)}

   Only primitives the seeded benchmark does not time: its traced run
   covers the engine event, heap push/pop and store set/get
   (benchmark/micro.ml). *)

let micro_tests () =
  let open Bechamel in
  let open Heron_sim in
  let open Heron_core in
  let open Heron_multicast in
  let open Heron_tpcc in
  let tmp = Tstamp.make ~clock:123_456 ~uid:789 in
  let t_tstamp =
    Test.make ~name:"tstamp.pack_unpack"
      (Staged.stage (fun () -> ignore (Tstamp.of_int64 (Tstamp.to_int64 tmp))))
  in
  let stock = Gen.make_stock ~w:1 ~i:1 in
  let t_stock =
    Test.make ~name:"tpcc.stock_roundtrip"
      (Staged.stage (fun () -> ignore (Schema.decode_stock (Schema.encode_stock stock))))
  in
  let t_sim_request =
    Test.make ~name:"sim.kv_request_end_to_end"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           let cfg = Config.default ~partitions:1 ~replicas:3 in
           let sys =
             System.create eng ~cfg
               ~app:(Heron_kv.Kv_app.app ~keys:1 ~partitions:1 ~init:0L)
           in
           System.start sys;
           let client = System.new_client_node sys ~name:"c" in
           Heron_rdma.Fabric.spawn_on client (fun () ->
               ignore (System.submit sys ~from:client (Heron_kv.Kv_app.Put (0, 1L))));
           Engine.run_until eng (Time_ns.ms 1)))
  in
  [ t_tstamp; t_stock; t_sim_request ]

let run_micro () =
  timed "micro" (fun () ->
      let open Bechamel in
      let benchmark test =
        let instance = Toolkit.Instance.monotonic_clock in
        let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
        let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            instance raw
        in
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> say "  %-36s %12.1f ns/run\n" name est
            | Some _ | None -> say "  %-36s (no estimate)\n" name)
          ols
      in
      say "== Micro-benchmarks (Bechamel, ns per run) ==\n";
      List.iter benchmark (micro_tests ());
      print_newline ())

(* Extract [--metrics FILE] before experiment selection: the remaining
   args are experiment names and [quick]. *)
let split_opt flag args =
  let rec go acc = function
    | f :: file :: rest when f = flag -> (Some file, List.rev_append acc rest)
    | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires a FILE argument\n" flag;
        exit 2
    | a :: rest -> go (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let dump_metrics reg file =
  let snap = Heron_obs.Metrics.snapshot reg in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Heron_obs.Json.to_channel oc (Heron_obs.Metrics.to_json snap);
      output_char oc '\n');
  say "metrics written to %s (%d series)\n" file (List.length snap)

(* Every experiment in run order, and whether it runs when none is
   named; [elastic] and [longhaul] are opt-in. *)
let experiments =
  [
    ("fig4", true, run_fig4);
    ("fig5", true, run_fig5);
    ("fig6", true, run_fig6);
    ("fig7", true, run_fig7);
    ("table1", true, run_table1);
    ("fig8", true, run_fig8);
    ("ablations", true, run_ablations);
    ("micro_kv", true, run_micro_kv);
    ("elastic", false, fun ~metrics:_ -> run_elastic);
    ("longhaul", false, fun ~metrics:_ -> run_longhaul);
    ("micro", true, fun ~metrics:_ ~quick:_ -> run_micro ());
  ]

let () =
  let metrics_file, args = split_opt "--metrics" (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "quick" args in
  let names = List.filter (fun a -> a <> "quick") args in
  let known name = List.exists (fun (n, _, _) -> n = name) experiments in
  (match List.filter (fun n -> not (known n)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment %s; valid names: quick %s\n"
        (String.concat ", " unknown)
        (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
      exit 2);
  let t0 = Unix.gettimeofday () in
  (* [--metrics] gathers every experiment table's deployments into one
     registry. *)
  let reg = Heron_obs.Metrics.create () in
  let metrics = Option.map (fun _ -> reg) metrics_file in
  List.iter
    (fun (name, default, run) ->
      if (names = [] && default) || List.mem name names then run ~metrics ~quick)
    experiments;
  Option.iter (dump_metrics reg) metrics_file;
  say "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
