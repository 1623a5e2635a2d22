(* Bechamel timings of the public primitives on the hot path of every
   workload: the engine's event heap, scheduling, fiber wakeups, the
   dual-versioned store and the coordination-slot scan. *)

open Heron_sim
open Heron_core
open Heron_multicast

(* The shape of an engine event: a time, a tie-breaking sequence number
   and a closure. *)
type event = { at : int; seq : int; fn : unit -> unit }

(* Each primitive, by the metric it feeds. *)
let tests () =
  let pq =
    Prio_queue.create ~cmp:(fun a b ->
        match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c)
  in
  let rng = Random.State.make [| 7 |] in
  for seq = 1 to 1024 do
    Prio_queue.push pq { at = Random.State.int rng 1_000_000; seq; fn = ignore }
  done;
  let seq = ref 1024 in
  let pq_push_pop () =
    incr seq;
    Prio_queue.push pq { at = Random.State.int rng 1_000_000; seq = !seq; fn = ignore };
    ignore (Prio_queue.pop pq)
  in
  let eng = Engine.create () in
  let schedule_run () =
    Engine.schedule eng ignore;
    Engine.run eng
  in
  let suspend_wake () =
    Engine.spawn eng (fun () -> Engine.suspend (fun wake -> wake ()));
    Engine.run eng
  in
  let fab =
    Heron_rdma.Fabric.create (Engine.create ()) ~profile:Heron_rdma.Profile.default
  in
  let node = Heron_rdma.Fabric.add_node fab ~name:"micro" in
  let store = Versioned_store.create node ~region_size:4096 in
  Versioned_store.register store 1 ~klass:Versioned_store.Registered ~cap:64
    ~init:(Bytes.make 64 'x');
  let clock = ref 0 and payload = Bytes.make 64 'y' in
  let store_set_get () =
    incr clock;
    Versioned_store.set store 1 payload ~tmp:(Tstamp.make ~clock:!clock ~uid:1);
    ignore (Versioned_store.get store 1)
  in
  let coord = Coord_mem.create node ~partitions:2 ~replicas:3 in
  let tmp = Tstamp.make ~clock:100 ~uid:3 in
  for idx = 0 to 2 do
    Coord_mem.write_local coord ~part:0 ~idx
      (Tstamp.make ~clock:(99 + idx) ~uid:1)
      ~stage:1
  done;
  let count_reached () =
    ignore (Coord_mem.count_reached coord ~part:0 ~replicas:3 ~tmp ~stage:1)
  in
  [
    ("sim.pq_push_pop_ns", pq_push_pop);
    ("sim.schedule_run_ns", schedule_run);
    ("sim.suspend_wake_ns", suspend_wake);
    ("exec.store_set_get_ns", store_set_get);
    ("coord.count_reached_ns", count_reached);
  ]

(* Nanoseconds per call of each primitive, by metric name, each test
   measured for about [quota_s] seconds. *)
let run ~quota_s =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let raw = Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage f)) in
      let est =
        Hashtbl.fold
          (fun _ result acc ->
            match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> acc)
          (Analyze.all ols instance raw)
          nan
      in
      (name, est))
    (tests ())
