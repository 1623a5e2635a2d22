(* The five workloads. Each one stresses a different layer; the README
   gives the reason for each and which bench/main.ml scenario it
   overlaps. *)

open Heron_sim
open Heron_rdma
open Heron_core
module Metrics = Heron_obs.Metrics

type expectation = At_least of float | Above of float

type t = {
  name : string;
  pass_s : float;
      (* nominal wall seconds of one untraced pass on the reference
         machine (2 cores); [--seconds] divided by this gives the number
         of passes, so a run's inputs depend only on seed and seconds *)
  expect : (string * expectation) list;
      (* per-layer figures that show the workload's mechanism ran *)
  run : seed:int -> traced:bool -> length:float -> Pass.outcome;
      (* [length] scales every virtual window (1 in a normal run) *)
}

let scaled length t = max (Time_ns.ms 1) (int_of_float (float_of_int t *. length))
let counter reg name = Metrics.counter_value (Metrics.counter reg name)

(* {1 TPC-C} *)

let tpcc_valid req resps =
  let open Heron_tpcc.Tx in
  match (req, merge_responses resps) with
  | New_order _, R_new_order _
  | Payment _, R_payment _
  | Order_status _, R_order_status _
  | Delivery _, R_delivery _
  | Stock_level _, R_stock_level _ ->
      true
  | _ -> false
  | exception Invalid_argument _ -> false

let tpcc_is_write =
  let open Heron_tpcc.Tx in
  function
  | New_order _ | Payment _ | Delivery _ -> true
  | Order_status _ | Stock_level _ -> false

let tpcc_4w ~seed ~traced ~length =
  let open Heron_tpcc in
  let warehouses = 4 in
  let scale = Scale.bench ~warehouses in
  Pass.run ~seed ~traced
    {
      Pass.partitions = warehouses;
      features = Deploy.paper_system;
      app = Tx.app ~scale ~seed;
      warmup = Time_ns.ms 10;
      measure = scaled length (Time_ns.ms 100);
      drive =
        (fun sys rc _ ->
          Pass.closed_loop sys rc ~seed ~clients:16
            ~gen:(fun ~client rng ->
              Workload.gen Workload.standard ~scale ~rng
                ~home_w:((client mod warehouses) + 1))
            ~is_write:tpcc_is_write ~valid:tpcc_valid;
          fun () -> ([], []));
    }

(* {1 YCSB} *)

let ycsb_valid ~value_bytes req resps =
  let open Heron_ycsb.Ycsb_app in
  match (req, resps) with
  | Y_read _, [ (_, Y_value { size; _ }) ] -> size = 8 + value_bytes
  | Y_update _, [ (_, Y_ok) ] -> true
  | _ -> false

let ycsb_is_write = function Heron_ycsb.Ycsb_app.Y_read _ -> false | _ -> true

let ycsb ~seed ~traced ~length ~features ~warmup ~measure ~clients ~profile ~key_dist =
  let open Heron_ycsb in
  let records = 4096 and value_bytes = 64 and partitions = 2 in
  let key_dist = if key_dist then `Zipfian (Zipf.create ~n:records ()) else `Uniform in
  Pass.run ~seed ~traced
    {
      Pass.partitions;
      features;
      app = Ycsb_app.app ~records ~value_bytes ~partitions;
      warmup;
      measure = scaled length measure;
      drive =
        (fun sys rc _ ->
          Pass.closed_loop sys rc ~seed ~clients
            ~gen:(fun ~client:_ rng -> Ycsb_app.gen profile ~records ~key_dist rng)
            ~is_write:ycsb_is_write ~valid:(ycsb_valid ~value_bytes);
          fun () -> ([], []));
    }

let ycsb_b_lease ~seed ~traced ~length =
  ycsb ~seed ~traced ~length
    ~features:{ Deploy.paper_system with pipeline = true; fast_reads = true }
    ~warmup:(Time_ns.ms 5) ~measure:(Time_ns.ms 75) ~clients:48
    ~profile:Heron_ycsb.Ycsb_app.workload_b ~key_dist:true

let ycsb_w_pipe ~seed ~traced ~length =
  ycsb ~seed ~traced ~length
    ~features:{ Deploy.paper_system with pipeline = true }
    ~warmup:(Time_ns.ms 5) ~measure:(Time_ns.ms 120) ~clients:64
    ~profile:
      { Heron_ycsb.Ycsb_app.read_pct = 0; update_pct = 100; rmw_pct = 0; scan_pct = 0 }
    ~key_dist:false

(* {1 Shifting hotspot} *)

let hotspot ~seed ~traced ~length =
  let open Heron_ycsb in
  let records = 1024 and value_bytes = 64 and partitions = 4 in
  let zipf = Zipf.create ~n:(records / partitions) () in
  (* Warmup heats partition 0; the window then heats each other
     partition once. A stripe heated before has already been spread
     and would need no move. *)
  let hot = ref 0 and rotations = partitions - 1 in
  let warmup = Time_ns.ms 10 in
  let period = scaled length (Time_ns.ms 100) in
  Pass.run ~seed ~traced
    {
      Pass.partitions;
      features = { Deploy.paper_system with reconfig = true };
      app = Ycsb_app.app ~records ~value_bytes ~partitions;
      warmup;
      measure = period * rotations;
      drive =
        (fun sys rc reg ->
          Pass.closed_loop sys rc ~seed ~clients:16
            ~gen:(fun ~client:_ rng ->
              let key =
                Ycsb_app.hotspot_key ~records ~partitions ~hot:!hot (Zipf.sample zipf rng)
              in
              if Random.State.int rng 100 < 50 then Ycsb_app.Y_read key
              else Ycsb_app.Y_update { key; seed = Random.State.int rng 1_000_000 })
            ~is_write:ycsb_is_write ~valid:(ycsb_valid ~value_bytes);
          (* The policy of bench/main.ml's reconfig scenario. *)
          let rb =
            Heron_reconfig.Rebalancer.start
              ~policy:
                {
                  Heron_reconfig.Rebalancer.default_policy with
                  imbalance_x100 = 130;
                  min_accesses = 50;
                }
              sys
          in
          (* The hot partition moves at the start of the window and then
             every [period], so each period opens with a shift the
             rebalancer has to follow. *)
          let migrations = Array.make rotations 0 in
          let control = Fabric.add_node (System.fabric sys) ~name:"control" in
          Fabric.spawn_on control (fun () ->
              Engine.sleep warmup;
              for i = 0 to rotations - 1 do
                let m0 = counter reg "reconfig.migrations" in
                hot := i + 1;
                Engine.sleep period;
                migrations.(i) <- counter reg "reconfig.migrations" - m0
              done;
              Heron_reconfig.Rebalancer.stop rb);
          fun () ->
            (* Adaptation: after each shift, the 1 ms completion buckets
               until the rate is back to 90% of the rate just before it. *)
            let per_ms = rc.Pass.per_ms in
            let steps = period / Time_ns.ms 1 in
            let adapt =
              List.init (rotations - 1) (fun i ->
                  let b = (i + 1) * steps in
                  let prev = Array.sub per_ms (max 0 (b - 5)) (min 5 b) in
                  let rate =
                    float_of_int (Array.fold_left ( + ) 0 prev)
                    /. float_of_int (max 1 (Array.length prev))
                  in
                  let rec first j =
                    if j >= b + steps || float_of_int per_ms.(j) >= 0.9 *. rate then j - b
                    else first (j + 1)
                  in
                  float_of_int (first b))
            in
            let per_rotation = Array.to_list (Array.map string_of_int migrations) in
            ( [
                ( "migration_every_rotation",
                  if Array.for_all (fun m -> m > 0) migrations then Ok ()
                  else
                    Error ("migrations per rotation: " ^ String.concat ", " per_rotation) );
              ],
              [
                ( "reconfig.adapt_ms",
                  List.fold_left ( +. ) 0. adapt /. float_of_int (List.length adapt),
                  "ms" );
              ] ));
    }

(* {1 Open-loop KV with a follower crash} *)

let kv_keys = 96

let kv_touched = function
  | Heron_kv.Kv_app.Add (k, _) -> [ k ]
  | Heron_kv.Kv_app.Incr_all ks -> ks
  | _ -> []

let kv_valid req resps =
  let open Heron_kv.Kv_app in
  match (req, resps) with
  | Add _, [ (_, Value v) ] -> v >= 1L
  | Incr_all _, rs -> rs <> [] && List.for_all (fun (_, r) -> r = Ack) rs
  | _ -> false

let kv_crash_openloop ~seed ~traced ~length =
  let open Heron_kv in
  let partitions = 2 in
  let warmup = Time_ns.ms 10 in
  let measure = scaled length (Time_ns.ms 800) in
  let crash_at = warmup + (measure / 4) and restart_at = warmup + (measure / 2) in
  Pass.run ~seed ~traced
    {
      Pass.partitions;
      features = { Deploy.paper_system with durability = true };
      app = Kv_app.app ~keys:kv_keys ~partitions ~init:0L;
      warmup;
      measure;
      drive =
        (fun sys rc _ ->
          let attempted = Array.make kv_keys 0 and acked = Array.make kv_keys 0 in
          let bump a req = List.iter (fun k -> a.(k) <- a.(k) + 1) (kv_touched req) in
          let nodes =
            Array.init 2 (fun i ->
                System.new_client_node sys ~name:(Printf.sprintf "kv-%d" i))
          in
          Pass.open_loop sys rc ~seed ~rate_per_s:100_000 ~nodes
            ~gen:(fun rng ->
              let k = Random.State.int rng kv_keys in
              if Random.State.int rng 100 < 10 then
                Kv_app.Incr_all [ k; (k + 1) mod kv_keys ]
              else Kv_app.Add (k, 1L))
            ~is_write:(fun _ -> true) ~valid:kv_valid ~on_submit:(bump attempted)
            ~on_reply:(bump acked);
          rc.Pass.gap_from <- crash_at;
          rc.Pass.gap_until <- restart_at + Time_ns.ms 50;
          let recovered_at = ref None in
          let control = Fabric.add_node (System.fabric sys) ~name:"control" in
          Fabric.spawn_on control (fun () ->
              Engine.sleep crash_at;
              Fabric.crash (Replica.node (System.replica sys ~part:0 ~idx:2));
              Engine.sleep (restart_at - crash_at);
              (* Caught up: out of state transfer and applied at least
                 what the group leader had applied at the restart. *)
              let target = Replica.last_applied (System.replica sys ~part:0 ~idx:0) in
              System.restart_replica sys ~part:0 ~idx:2;
              let rec poll () =
                Engine.sleep (Time_ns.us 1);
                let r = System.replica sys ~part:0 ~idx:2 in
                if
                  (not (Replica.in_recovery r))
                  && Heron_multicast.Tstamp.(target <= Replica.last_applied r)
                then recovered_at := Some (Engine.self_now ())
                else poll ()
              in
              poll ());
          fun () ->
            let eng = System.engine sys in
            let final = ref None in
            Fabric.spawn_on nodes.(0) (fun () ->
                let all_keys = Kv_app.Read_all (List.init kv_keys Fun.id) in
                final := Some (System.submit sys ~from:nodes.(0) all_keys));
            Engine.run_until eng (Engine.now eng + Time_ns.ms 20);
            let bounded =
              match !final with
              | Some ((_, Kv_app.Values kvs) :: _) ->
                  let bad =
                    List.filter
                      (fun (k, v) ->
                        let v = Int64.to_int v in
                        v < acked.(k) || v > attempted.(k))
                      kvs
                  in
                  if List.length kvs <> kv_keys then
                    Error "final read returned too few keys"
                  else if bad = [] then Ok ()
                  else
                    Error
                      (Printf.sprintf "%d keys outside [acked, attempted], e.g. key %d"
                         (List.length bad) (fst (List.hd bad)))
              | Some _ -> Error "final read returned an unexpected response"
              | None -> Error "final read not answered"
            in
            let recovery =
              match !recovered_at with
              | Some t when t < warmup + measure -> Ok ()
              | Some _ -> Error "restarted replica left recovery after the window"
              | None -> Error "restarted replica never left recovery"
            in
            ( [
                ("acked_le_final_le_attempted", bounded);
                ("recovered_in_window", recovery);
              ],
              [
                ( "dur.recovery_us",
                  (match !recovered_at with
                  | Some t -> Time_ns.to_us_f (t - restart_at)
                  | None -> nan),
                  "us" );
                ("unavail_us", Time_ns.to_us_f rc.Pass.max_gap, "us");
              ] ));
    }

(* Why each workload is here: BENCHMARK.json and README.md. *)
let all =
  [
    { name = "tpcc-4w"; pass_s = 4.5; expect = []; run = tpcc_4w };
    {
      name = "ycsb-b-lease";
      pass_s = 4.0;
      expect =
        [ ("lease.local_frac", At_least 0.9); ("pipeline.batch_occupancy_mean", Above 1.) ];
      run = ycsb_b_lease;
    };
    {
      name = "ycsb-w-pipe";
      pass_s = 3.8;
      expect = [ ("pipeline.batch_occupancy_mean", Above 1.) ];
      run = ycsb_w_pipe;
    };
    {
      name = "kv-crash-openloop";
      pass_s = 3.6;
      expect = [ ("dur.checkpoints", Above 0.) ];
      run = kv_crash_openloop;
    };
    { name = "ycsb-hotspot-shift"; pass_s = 3.4; expect = []; run = hotspot };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
