open Heron_sim
open Heron_rdma
open Heron_stats
open Heron_multicast
open Heron_core
open Heron_tpcc

let kt tps = Printf.sprintf "%.1f" (tps /. 1_000.)
let us_mean set = Table.cell_us (int_of_float (Sample_set.mean set))

(* The TPCC-like destination distribution used by the transport-level
   series of Figure 4 (RamCast and Heron-null): ~90% single partition,
   ~10% spanning two partitions, matching the standard mix. *)
let null_dst ~partitions rng =
  if partitions > 1 && Gen.rand_range rng 1 100 <= 10 then begin
    let a = Random.State.int rng partitions in
    let b = (a + 1 + Random.State.int rng (partitions - 1)) mod partitions in
    List.sort compare [ a; b ]
  end
  else [ Random.State.int rng partitions ]

let clients_per_partition = 4

(* {1 Figure 4} *)

let fig4 ?(quick = false) () =
  let whs = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let warmup = Time_ns.ms (if quick then 4 else 10) in
  let measure = Time_ns.ms (if quick then 15 else 40) in
  let table =
    Table.make ~title:"Figure 4: throughput (ktps) vs number of warehouses"
      ~headers:[ "WH"; "RamCast"; "Heron (null)"; "Heron TPCC"; "Local TPCC" ]
  in
  List.iter
    (fun wh ->
      let clients = clients_per_partition * wh in
      let ramcast =
        Driver.run_ramcast ~warmup ~measure ~partitions:wh ~clients
          ~gen_dst:(null_dst ~partitions:wh) ~msg_bytes:200 ()
      in
      let null_run =
        let eng = Engine.create ~seed:2 () in
        let cfg = Config.default ~partitions:wh ~replicas:3 in
        let sys = System.create eng ~cfg ~app:Driver.null_app in
        System.start sys;
        Driver.run_system ~warmup ~measure ~sys ~clients
          ~gen:(fun ~client rng ->
            ignore client;
            ({ Driver.nr_dst = []; nr_bytes = 200 }, Some (null_dst ~partitions:wh rng)))
          ()
      in
      let scale = Scale.bench ~warehouses:wh in
      let tpcc =
        let sys = Driver.heron_tpcc_system ~scale () in
        Driver.run_system ~warmup ~measure ~sys ~clients
          ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale)
          ()
      in
      let local =
        let sys = Driver.heron_tpcc_system ~seed:3 ~scale () in
        Driver.run_system ~warmup ~measure ~sys ~clients
          ~gen:(Driver.tpcc_gen ~profile:Workload.local_only ~scale)
          ()
      in
      Table.add_row table
        [
          string_of_int wh;
          kt ramcast.Driver.rs_throughput_tps;
          kt null_run.Driver.rs_throughput_tps;
          kt tpcc.Driver.rs_throughput_tps;
          kt local.Driver.rs_throughput_tps;
        ])
    whs;
  table

(* {1 Figure 5} *)

let fig5 ?(quick = false) () =
  let whs = if quick then [ 1; 2 ] else [ 1; 2; 4; 8; 16 ] in
  let table =
    Table.make ~title:"Figure 5: Heron vs DynaStar (TPCC)"
      ~headers:
        [
          "WH";
          "Heron ktps";
          "DynaStar ktps";
          "speedup";
          "Heron lat (us)";
          "DynaStar lat (us)";
          "lat ratio";
        ]
  in
  List.iter
    (fun wh ->
      let scale = Scale.bench ~warehouses:wh in
      let heron =
        (* Two clients per partition: the knee of Heron's
           latency/throughput curve (the paper reports peak throughput
           at ~35 us latency, Table I). *)
        let sys = Driver.heron_tpcc_system ~scale () in
        Driver.run_system
          ~warmup:(Time_ns.ms (if quick then 4 else 10))
          ~measure:(Time_ns.ms (if quick then 15 else 40))
          ~sys ~clients:(2 * wh)
          ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale)
          ()
      in
      let dynastar =
        Driver.run_dynastar
          ~warmup:(Time_ns.ms (if quick then 20 else 40))
          ~measure:(Time_ns.ms (if quick then 80 else 200))
          ~scale
          ~clients:(clients_per_partition * wh)
          ~profile:Workload.standard ()
      in
      let h_lat = Sample_set.mean heron.Driver.rs_latency in
      let d_lat = Sample_set.mean dynastar.Driver.rs_latency in
      Table.add_row table
        [
          string_of_int wh;
          kt heron.Driver.rs_throughput_tps;
          kt dynastar.Driver.rs_throughput_tps;
          Printf.sprintf "%.1fx"
            (heron.Driver.rs_throughput_tps /. dynastar.Driver.rs_throughput_tps);
          Printf.sprintf "%.1f" (h_lat /. 1e3);
          Printf.sprintf "%.1f" (d_lat /. 1e3);
          Printf.sprintf "%.1fx" (d_lat /. h_lat);
        ])
    whs;
  table

(* {1 Figure 6} *)

(* Single client; the breakdown is taken at the home partition's
   replicas: they are on the reply's critical path, whereas supply-only
   partitions "coordinate" for as long as the home partition
   executes. *)
let fig6 ?(quick = false) () =
  let measure = Time_ns.ms (if quick then 8 else 20) in
  let breakdown =
    Table.make
      ~title:
        "Figure 6 (left): single-client NewOrder latency breakdown (us), 4 partitions"
      ~headers:[ "workload"; "ordering"; "coordination"; "execution"; "client total" ]
  in
  let cdf =
    Table.make ~title:"Figure 6 (right): client latency CDF points (us)"
      ~headers:[ "workload"; "p50"; "p75"; "p90"; "p95"; "p99" ]
  in
  let scale = Scale.bench ~warehouses:4 in
  let run name gen =
    let sys = Driver.heron_tpcc_system ~scale () in
    let rs = Driver.run_system ~warmup:(Time_ns.ms 2) ~measure ~sys ~clients:1 ~gen () in
    let home_stat pick =
      Array.fold_left
        (fun acc r -> Sample_set.merge acc (pick (Replica.stats r)))
        (Sample_set.create ())
        (System.replicas sys).(0)
    in
    let ordering = home_stat (fun s -> s.Replica.st_ordering) in
    let coord = home_stat (fun s -> s.Replica.st_coord) in
    let exec = home_stat (fun s -> s.Replica.st_exec) in
    Table.add_row breakdown
      [
        name;
        us_mean ordering;
        (if Sample_set.is_empty coord then "0.0" else us_mean coord);
        us_mean exec;
        us_mean rs.Driver.rs_latency;
      ];
    Table.add_row cdf
      (name
      :: List.map
           (fun p -> Table.cell_us (Sample_set.percentile rs.Driver.rs_latency p))
           [ 50.; 75.; 90.; 95.; 99. ])
  in
  run "Tpcc" (fun ~client rng ->
      ignore client;
      (Workload.gen_new_order Workload.standard ~scale ~rng ~home_w:1, None));
  List.iter
    (fun k ->
      let warehouses = List.init k (fun i -> i + 1) in
      run
        (Printf.sprintf "%dWH" k)
        (fun ~client rng ->
          ignore client;
          (Workload.gen_new_order_pinned ~scale ~rng ~warehouses, None)))
    [ 1; 2; 3; 4 ];
  (breakdown, cdf)

(* {1 Figure 7} *)

let fig7 ?(quick = false) () =
  let measure = Time_ns.ms (if quick then 10 else 30) in
  let averages =
    Table.make ~title:"Figure 7 (left): latency per TPCC transaction type (us), 1 client"
      ~headers:
        [ "transaction"; "single-partition"; "multi-partition"; "overall"; "multi %" ]
  in
  let cdf =
    Table.make ~title:"Figure 7 (right): latency CDF points per type (us)"
      ~headers:[ "transaction"; "p50"; "p75"; "p90"; "p95"; "p99" ]
  in
  let scale = Scale.bench ~warehouses:4 in
  let run name kind =
    let sys = Driver.heron_tpcc_system ~scale () in
    let rs =
      Driver.run_system ~warmup:(Time_ns.ms 2) ~measure ~sys ~clients:1
        ~gen:(fun ~client rng ->
          ignore client;
          (Workload.gen_of_kind kind Workload.standard ~scale ~rng ~home_w:1, None))
        ()
    in
    let cell set = if Sample_set.is_empty set then "-" else us_mean set in
    let multi_pct =
      if rs.Driver.rs_completed = 0 then 0.
      else
        float_of_int (Sample_set.count rs.Driver.rs_latency_multi)
        /. float_of_int rs.Driver.rs_completed
    in
    Table.add_row averages
      [
        name;
        cell rs.Driver.rs_latency_single;
        cell rs.Driver.rs_latency_multi;
        cell rs.Driver.rs_latency;
        Table.cell_pct multi_pct;
      ];
    Table.add_row cdf
      (name
      :: List.map
           (fun p -> Table.cell_us (Sample_set.percentile rs.Driver.rs_latency p))
           [ 50.; 75.; 90.; 95.; 99. ])
  in
  run "NewOrder" `New_order;
  run "Payment" `Payment;
  run "OrderStatus" `Order_status;
  run "Delivery" `Delivery;
  run "StockLevel" `Stock_level;
  (averages, cdf)

(* {1 Table I} *)

let table1 ?(quick = false) () =
  let table =
    Table.make
      ~title:
        "Table I: transaction delay when waiting for all replicas (phase 4 = wait-all)"
      ~headers:
        [
          "partitions";
          "replicas";
          "max tput (tps)";
          "avg lat (us)";
          "partition id";
          "delayed";
          "avg delay (us)";
        ]
  in
  let configs =
    if quick then [ (2, 3) ] else [ (2, 3); (2, 5); (4, 3); (4, 5) ]
  in
  List.iter
    (fun (partitions, replicas) ->
      let scale = Scale.bench ~warehouses:partitions in
      let sys =
        Driver.heron_tpcc_system ~replicas ~scale
          ~cfg_tweak:(fun c -> { c with Config.wait_phase4 = Config.Wait_all })
          ()
      in
      let rs =
        Driver.run_system
          ~warmup:(Time_ns.ms (if quick then 4 else 10))
          ~measure:(Time_ns.ms (if quick then 15 else 40))
          ~sys
          ~clients:(clients_per_partition * partitions)
          ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale)
          ()
      in
      for part = 0 to partitions - 1 do
        let row = (System.replicas sys).(part) in
        let delayed = Array.fold_left (fun a r -> a + (Replica.stats r).Replica.st_delayed) 0 row in
        let multi = Array.fold_left (fun a r -> a + (Replica.stats r).Replica.st_multi) 0 row in
        let delays =
          Array.fold_left
            (fun acc r -> Sample_set.merge acc (Replica.stats r).Replica.st_delay)
            (Sample_set.create ()) row
        in
        let pct = if multi = 0 then 0. else float_of_int delayed /. float_of_int multi in
        Table.add_row table
          [
            (if part = 0 then string_of_int partitions else "");
            (if part = 0 then string_of_int replicas else "");
            (if part = 0 then Printf.sprintf "%.0f" rs.Driver.rs_throughput_tps else "");
            (if part = 0 then us_mean rs.Driver.rs_latency else "");
            Printf.sprintf "#%d" (part + 1);
            Table.cell_pct pct;
            (if Sample_set.is_empty delays then "-" else us_mean delays);
          ]
      done)
    configs;
  table

(* {1 Figure 8} *)

(* Synthetic blob application: [count] objects of [size] bytes in one
   partition, all of the chosen storage class. A request overwrites a
   batch of objects, feeding the replicas' update logs exactly like
   normal execution. *)
type blob_req = { br_oids : int list; br_size : int }

let blob_value ~size oid = Bytes.make size (Char.chr (oid land 0x7f))

let blob_app ~count ~size ~klass =
  {
    App.app_name = "blob";
    placement_of = (fun _ -> App.Partition 0);
    klass_of = (fun _ -> klass);
    read_set = (fun _ -> []);
    read_plan = (fun ~part:_ _ -> []);
    write_sketch = (fun r -> List.map Oid.of_int r.br_oids);
    req_size = (fun r -> 16 + (8 * List.length r.br_oids));
    resp_size = (fun () -> 8);
    execute =
      (fun ctx r ->
        List.iter
          (fun oid -> ctx.App.ctx_write (Oid.of_int oid) (blob_value ~size:r.br_size oid))
          r.br_oids);
    serial_hint = (fun _ -> false);
    read_only = (fun _ -> false);
    catalog =
      (fun () ->
        List.init count (fun oid ->
            {
              App.spec_oid = Oid.of_int oid;
              spec_placement = App.Partition 0;
              spec_klass = klass;
              spec_cap = size;
              spec_init = blob_value ~size oid;
            }));
  }

(* Measure the state-transfer latency for [count] objects of [size]
   bytes in class [klass]: write them all through normal requests, then
   repeatedly run Algorithm 3 from replica 2 and time it. *)
let measure_transfer ~count ~size ~klass ~repeats =
  let eng = Engine.create ~seed:9 () in
  let cfg =
    (* Large transfers (up to ~200 MB for full-warehouse recovery) need
       a donor-selection timeout above the transfer time. *)
    { (Config.default ~partitions:1 ~replicas:3) with
      Config.statesync_timeout_ns = Time_ns.s 2 }
  in
  let sys = System.create eng ~cfg ~app:(blob_app ~count ~size ~klass) in
  System.start sys;
  let samples = Sample_set.create () in
  let client = System.new_client_node sys ~name:"blob-client" in
  Fabric.spawn_on client (fun () ->
      (* Touch every object, 64 per request. *)
      let rec batches lo =
        if lo < count then begin
          let hi = min count (lo + 64) in
          let oids = List.init (hi - lo) (fun i -> lo + i) in
          ignore (System.submit sys ~from:client { br_oids = oids; br_size = size });
          batches hi
        end
      in
      batches 0;
      let lagger = System.replica sys ~part:0 ~idx:2 in
      (* From the first request when there is data; the protocol-only
         scenario (no objects) asks from the very beginning, which the
         (empty) full-transfer path answers immediately. *)
      let failed_tmp =
        if count = 0 then Tstamp.zero else Tstamp.make ~clock:1 ~uid:1
      in
      for _ = 1 to repeats do
        let t0 = Engine.self_now () in
        Replica.force_state_transfer lagger ~failed_tmp;
        Sample_set.add samples (Engine.self_now () - t0);
        (* Let backup-donor candidates time out between repeats: this
           loop reuses one failed_tmp, which back-to-back would look
           like the same transfer request (an artifact a real lagger,
           whose failed requests always advance, cannot produce). *)
        Engine.sleep (2 * cfg.Config.statesync_timeout_ns)
      done);
  Engine.run_until eng (Time_ns.s 600);
  if Sample_set.count samples < repeats then failwith "fig8: transfer did not complete";
  samples

let fig8 ?(quick = false) () =
  let repeats = if quick then 3 else 5 in
  let table =
    Table.make ~title:"Figure 8: state transfer latency"
      ~headers:[ "scenario"; "data"; "avg latency"; "stddev" ]
  in
  let row name data samples =
    let avg = int_of_float (Sample_set.mean samples) in
    let cell =
      if avg >= 1_000_000 then Table.cell_ms avg ^ " ms" else Table.cell_us avg ^ " us"
    in
    let sd = int_of_float (Sample_set.stddev samples) in
    let sd_cell =
      if sd >= 1_000_000 then Table.cell_ms sd ^ " ms" else Table.cell_us sd ^ " us"
    in
    Table.add_row table [ name; data; cell; sd_cell ]
  in
  row "Protocol (no data)" "0"
    (measure_transfer ~count:0 ~size:1_024 ~klass:Versioned_store.Registered ~repeats);
  row "Serialized" "64KB"
    (measure_transfer ~count:64 ~size:1_024 ~klass:Versioned_store.Registered ~repeats);
  row "Non-serialized" "64KB"
    (measure_transfer ~count:64 ~size:1_024 ~klass:Versioned_store.Local ~repeats);
  row "Serialized" "640KB"
    (measure_transfer ~count:640 ~size:1_024 ~klass:Versioned_store.Registered ~repeats);
  row "Non-serialized" "640KB"
    (measure_transfer ~count:640 ~size:1_024 ~klass:Versioned_store.Local ~repeats);
  row "Serialized" "6.4MB"
    (measure_transfer ~count:800 ~size:8_192 ~klass:Versioned_store.Registered ~repeats);
  row "Non-serialized" "6.4MB"
    (measure_transfer ~count:800 ~size:8_192 ~klass:Versioned_store.Local ~repeats);
  if not quick then begin
    (* Full-warehouse recovery (Section V-E): 105.3 MB serialized +
       32.39 MB non-serialized, measured separately and summed. *)
    let ser =
      measure_transfer ~count:3215 ~size:32_768 ~klass:Versioned_store.Registered
        ~repeats:1
    in
    let non_ser =
      measure_transfer ~count:989 ~size:32_768 ~klass:Versioned_store.Local ~repeats:1
    in
    let total =
      int_of_float (Sample_set.mean ser) + int_of_float (Sample_set.mean non_ser)
    in
    Table.add_row table
      [
        "Full warehouse recovery";
        "105.3MB ser + 32.4MB non-ser";
        Table.cell_ms total ^ " ms";
        Printf.sprintf "(ser %s ms, non-ser %s ms)"
          (Table.cell_ms (int_of_float (Sample_set.mean ser)))
          (Table.cell_ms (int_of_float (Sample_set.mean non_ser)));
      ]
  end;
  table

(* {1 Grace-delay ablation (Section V-E's cut-off question)} *)

(* One replica of partition 0 runs slower than its peers; sweep the
   phase-4 grace delay and watch the trade-off: a small delay lets the
   straggler catch up (few laggers / state transfers), no delay leaves
   it behind, waiting for all couples every request to the slowest
   replica. *)
let ablation_grace ?(quick = false) () =
  let table =
    Table.make
      ~title:
        "Ablation: anti-lagger grace delay (slow replica at +15us/request, 2 partitions)"
      ~headers:
        [
          "phase-4 wait";
          "throughput (tps)";
          "avg lat (us)";
          "lagger events";
          "state transfers";
          "slow replica skipped";
        ]
  in
  let scale = Scale.bench ~warehouses:2 in
  let run name wait =
    let sys =
      Driver.heron_tpcc_system ~scale
        ~cfg_tweak:(fun c -> { c with Config.wait_phase4 = wait })
        ()
    in
    let slow = System.replica sys ~part:0 ~idx:2 in
    Replica.inject_exec_delay slow (Time_ns.us 15);
    let rs =
      Driver.run_system
        ~warmup:(Time_ns.ms (if quick then 4 else 10))
        ~measure:(Time_ns.ms (if quick then 15 else 40))
        ~sys ~clients:8
        ~gen:(Driver.tpcc_gen ~profile:Workload.standard ~scale)
        ()
    in
    let laggers = Driver.sum_replica_stat sys (fun s -> s.Replica.st_laggers) in
    let transfers =
      Driver.sum_replica_stat sys (fun s -> s.Replica.st_transfers_served)
    in
    let skipped = (Replica.stats slow).Replica.st_skipped in
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" rs.Driver.rs_throughput_tps;
        us_mean rs.Driver.rs_latency;
        string_of_int laggers;
        string_of_int transfers;
        string_of_int skipped;
      ]
  in
  run "majority only" Config.Majority;
  List.iter
    (fun us -> run (Printf.sprintf "grace %dus" us) (Config.Grace (Time_ns.us us)))
    [ 2; 5; 10; 20 ];
  run "wait for all" Config.Wait_all;
  table

(* {1 Parallel-execution ablation (Section III-D.1 extension)} *)

let ablation_parallel ?(quick = false) () =
  let table =
    Table.make
      ~title:
        "Ablation: multi-threaded execution of single-partition requests (2 WH, local TPCC)"
      ~headers:[ "executors"; "throughput (tps)"; "avg lat (us)"; "p95 lat (us)" ]
  in
  let scale = Scale.bench ~warehouses:2 in
  (* [None] is the pipeline off: every request inline on the delivery
     loop, the paper's prototype. *)
  List.iter
    (fun executors ->
      let pipeline =
        match executors with
        | None -> Config.default_pipeline
        | Some n ->
            { Config.default_pipeline with Config.pipe_enabled = true; pipe_executors = n }
      in
      let sys =
        Driver.heron_tpcc_system ~scale
          ~cfg_tweak:(fun c -> { c with Config.pipeline })
          ()
      in
      let rs =
        Driver.run_system
          ~warmup:(Time_ns.ms (if quick then 4 else 10))
          ~measure:(Time_ns.ms (if quick then 15 else 40))
          ~sys ~clients:16
          ~gen:(Driver.tpcc_gen ~profile:Workload.local_only ~scale)
          ()
      in
      Table.add_row table
        [
          (match executors with None -> "off" | Some n -> string_of_int n);
          Printf.sprintf "%.0f" rs.Driver.rs_throughput_tps;
          us_mean rs.Driver.rs_latency;
          Table.cell_us (Sample_set.percentile rs.Driver.rs_latency 95.);
        ])
    [ None; Some 1; Some 2; Some 4; Some 8 ];
  table

(* {1 Key-value microbenchmark (extension)}

   The evaluation style of the full-replication RDMA systems Heron's
   related work compares against (Mu, DARE, APUS): single-operation
   latencies across value sizes, and YCSB mixes across key
   distributions. *)

let micro_kv ?(quick = false) () =
  let open Heron_ycsb in
  let latency_table =
    Table.make ~title:"Microbenchmark (ext.): operation latency vs value size, 1 client"
      ~headers:[ "value size"; "read (us)"; "update (us)"; "rmw (us)" ]
  in
  let sizes = if quick then [ 64; 1024 ] else [ 64; 256; 1024; 4096 ] in
  List.iter
    (fun value_bytes ->
      let run kind =
        let eng = Engine.create ~seed:4 () in
        let cfg = Config.default ~partitions:1 ~replicas:3 in
        let sys =
          System.create eng ~cfg ~app:(Ycsb_app.app ~records:64 ~value_bytes ~partitions:1)
        in
        System.start sys;
        let rs =
          Driver.run_system ~warmup:(Time_ns.ms 1)
            ~measure:(Time_ns.ms (if quick then 4 else 10))
            ~sys ~clients:1
            ~gen:(fun ~client rng ->
              ignore client;
              let key = Random.State.int rng 64 in
              let req =
                match kind with
                | `Read -> Ycsb_app.Y_read key
                | `Update -> Ycsb_app.Y_update { key; seed = Random.State.int rng 1000 }
                | `Rmw -> Ycsb_app.Y_rmw { key; delta = 1 }
              in
              (req, None))
            ()
        in
        us_mean rs.Driver.rs_latency
      in
      Table.add_row latency_table
        [ Printf.sprintf "%dB" value_bytes; run `Read; run `Update; run `Rmw ])
    sizes;
  let ycsb_table =
    Table.make
      ~title:"Microbenchmark (ext.): YCSB mixes, 4 partitions, 1KB values"
      ~headers:[ "workload"; "distribution"; "tput (ktps)"; "avg lat (us)"; "p95 (us)" ]
  in
  let records = 512 in
  List.iter
    (fun (name, profile) ->
      List.iter
        (fun (dname, dist) ->
          let eng = Engine.create ~seed:5 () in
          let cfg = Config.default ~partitions:4 ~replicas:3 in
          let sys =
            System.create eng ~cfg
              ~app:(Ycsb_app.app ~records ~value_bytes:1024 ~partitions:4)
          in
          System.start sys;
          let rs =
            Driver.run_system ~warmup:(Time_ns.ms 2)
              ~measure:(Time_ns.ms (if quick then 8 else 20))
              ~sys ~clients:16
              ~gen:(fun ~client rng ->
                ignore client;
                (Ycsb_app.gen profile ~records ~key_dist:dist rng, None))
              ()
          in
          Table.add_row ycsb_table
            [
              name;
              dname;
              kt rs.Driver.rs_throughput_tps;
              us_mean rs.Driver.rs_latency;
              Table.cell_us (Sample_set.percentile rs.Driver.rs_latency 95.);
            ])
        [ ("uniform", `Uniform); ("zipfian", `Zipfian (Zipf.create ~n:records ())) ])
    [
      ("A (50r/50u)", Ycsb_app.workload_a);
      ("B (95r/5u)", Ycsb_app.workload_b);
      ("C (100r)", Ycsb_app.workload_c);
      ("E (with scans)", Ycsb_app.workload_e);
    ];
  (latency_table, ycsb_table)
