(* Tests for live repartitioning (lib/reconfig + Placement): the
   directory/view mechanics, online single-key migration, migrations
   racing crashes and restarts, and the load-driven rebalancer. *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv
open Heron_reconfig

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tc name f = Alcotest.test_case name `Quick f

(* {1 Placement unit tests} *)

let oid = Oid.of_int

let test_placement_directory () =
  let dir = Placement.create () in
  let v = Placement.view dir in
  check_int "epoch 0" 0 (Placement.epoch v);
  check_bool "no override" true (Placement.lookup v (oid 3) = None);
  Placement.commit dir ~epoch:1 ~moves:[ (oid 3, 1) ];
  check_int "epoch 1" 1 (Placement.epoch v);
  check_bool "override" true (Placement.lookup v (oid 3) = Some 1);
  check_bool "non-consecutive epoch rejected" true
    (try
       Placement.commit dir ~epoch:3 ~moves:[];
       false
     with Invalid_argument _ -> true);
  check_bool "exclusive slot" true (Placement.begin_exclusive dir);
  check_bool "second taker refused" false (Placement.begin_exclusive dir);
  Placement.end_exclusive dir;
  check_bool "slot released" true (Placement.begin_exclusive dir);
  Placement.end_exclusive dir

let test_placement_views () =
  let static o = App.Partition (Oid.to_int o mod 2) in
  let v = Placement.fresh_view () in
  check_int "fresh epoch" 0 (Placement.epoch v);
  check_bool "static passthrough" true
    (Placement.placement_under v static (oid 3) = App.Partition 1);
  Placement.install v ~epoch:1 ~moves:[ (oid 3, 0) ];
  check_bool "override wins" true
    (Placement.placement_under v static (oid 3) = App.Partition 0);
  (* Re-delivery of an old epoch (a re-executed Migrate after restart)
     is a no-op. *)
  Placement.install v ~epoch:1 ~moves:[ (oid 3, 1) ];
  check_bool "stale install ignored" true
    (Placement.placement_under v static (oid 3) = App.Partition 0);
  Placement.install v ~epoch:2 ~moves:[ (oid 5, 0) ];
  check_int "epoch advances" 2 (Placement.epoch v);
  check_int "override count" 2 (Placement.size v);
  (* A replicated object never migrates, whatever the table says. *)
  let repl _ = App.Replicated in
  check_bool "replicated unaffected" true
    (Placement.placement_under v repl (oid 3) = App.Replicated);
  (* A client refresh copies the directory's view wholesale. *)
  let dir = Placement.create () in
  Placement.commit dir ~epoch:1 ~moves:[ (oid 7, 1) ];
  Placement.copy_view ~src:(Placement.view dir) ~dst:v;
  check_int "refresh resets epoch" 1 (Placement.epoch v);
  check_bool "refresh resets overrides" true
    (Placement.lookup v (oid 3) = None
    && Placement.lookup v (oid 7) = Some 1);
  (* copy_view is the donor shipping its placement to a lagger. *)
  let w = Placement.fresh_view () in
  Placement.copy_view ~src:v ~dst:w;
  check_int "copied epoch" 1 (Placement.epoch w);
  check_bool "copied override" true (Placement.lookup w (oid 7) = Some 1)

(* {1 System helpers} *)

let make_sys ?(seed = 5) ?(keys = 8) ?(partitions = 2) () =
  let eng = Engine.create ~seed () in
  let cfg =
    {
      (Config.default ~partitions ~replicas:3) with
      Config.metrics = Heron_obs.Metrics.create ();
      reconfig = { Config.enabled = true };
    }
  in
  let sys =
    System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init:0L)
  in
  System.start sys;
  (eng, sys)

(* Where key [k] lives under the directory's view. *)
let home sys k =
  Placement.placement_under
    (Placement.view (System.directory sys))
    (System.app sys).App.placement_of (Kv_app.oid_of_key k)

let counter_value sys name =
  Heron_obs.Metrics.counter_value
    (Heron_obs.Metrics.counter (System.config sys).Config.metrics name)

(* Run [f] on a fresh client node and advance the sim until it returns. *)
let on_client ?(name = "t-client") ~eng sys f =
  let node = System.new_client_node sys ~name in
  let result = ref None in
  Fabric.spawn_on node (fun () -> result := Some (f node));
  Engine.run_until eng (Time_ns.s 5);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "client fiber did not finish"

(* {1 Migration} *)

let test_migrate_single_key () =
  let eng, sys = make_sys () in
  on_client ~eng sys (fun node ->
      (* Key 1 lives on partition 1; write, migrate to 0, read back. *)
      ignore (System.submit sys ~from:node (Kv_app.Put (1, 42L)));
      (match Migration.migrate sys ~from:node ~oids:[ Kv_app.oid_of_key 1 ] ~dst:0 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "migrate failed: %s" e);
      check_int "epoch bumped" 1 (Placement.epoch (Placement.view (System.directory sys)));
      check_bool "directory override" true
        (home sys 1 = App.Partition 0);
      (match System.submit sys ~from:node (Kv_app.Get 1) with
      | [ (part, Kv_app.Value v) ] ->
          check_int "served by new home" 0 part;
          check_bool "value survived the move" true (v = 42L)
      | _ -> Alcotest.fail "unexpected response");
      (* Writes keep working at the new home. *)
      (match System.submit sys ~from:node (Kv_app.Add (1, 8L)) with
      | [ (_, Kv_app.Value v) ] -> check_bool "post-move rmw" true (v = 50L)
      | _ -> Alcotest.fail "unexpected response");
      check_int "one migration" 1 (counter_value sys "reconfig.migrations");
      check_int "one object moved" 1 (counter_value sys "reconfig.objects_moved"));
  (* Every live replica of the destination holds the moved cell; the
     source replicas keep their frozen copy (never deleted). *)
  Array.iter
    (fun r ->
      check_bool "dst replica holds the cell" true
        (Versioned_store.mem (Replica.store r) (Kv_app.oid_of_key 1)))
    (System.replicas sys).(0)

let test_migrate_batch_and_validation () =
  let eng, sys = make_sys () in
  on_client ~eng sys (fun node ->
      (* A batch from one source partition moves atomically (one epoch). *)
      (match
         Migration.migrate sys ~from:node
           ~oids:[ Kv_app.oid_of_key 0; Kv_app.oid_of_key 2 ]
           ~dst:1
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch migrate failed: %s" e);
      check_int "single epoch for the batch" 1
        (Placement.epoch (Placement.view (System.directory sys)));
      (* Validation errors. *)
      let fails ~oids ~dst =
        match Migration.migrate sys ~from:node ~oids ~dst with
        | Ok () -> false
        | Error _ -> true
      in
      check_bool "empty batch" true (fails ~oids:[] ~dst:1);
      check_bool "dst out of range" true
        (fails ~oids:[ Kv_app.oid_of_key 1 ] ~dst:7);
      check_bool "already home" true
        (fails ~oids:[ Kv_app.oid_of_key 0 ] ~dst:1);
      (* Key 0 now lives on partition 1 (just moved), key 4 still on 0. *)
      check_bool "mixed sources" true
        (fails ~oids:[ Kv_app.oid_of_key 0; Kv_app.oid_of_key 4 ] ~dst:0);
      (* Traffic still linear after the batch move. *)
      match System.submit sys ~from:node (Kv_app.Incr_all [ 0; 1; 2 ]) with
      | [ _; _ ] | [ _ ] -> ()
      | resps -> Alcotest.failf "unexpected fan-out %d" (List.length resps))

let test_migrate_disabled () =
  let eng = Engine.create ~seed:5 () in
  let cfg =
    { (Config.default ~partitions:2 ~replicas:3) with
      Config.metrics = Heron_obs.Metrics.create () }
  in
  let sys = System.create eng ~cfg ~app:(Kv_app.app ~keys:4 ~partitions:2 ~init:0L) in
  System.start sys;
  on_client ~eng sys (fun node ->
      match Migration.migrate sys ~from:node ~oids:[ Kv_app.oid_of_key 1 ] ~dst:0 with
      | Ok () -> Alcotest.fail "migration must be refused when disabled"
      | Error _ -> ())

let test_migrate_with_restart () =
  (* A replica is down while the migration commits; after restart and
     state transfer it must hold the migrated-in object and agree with
     its peers. *)
  let eng, sys = make_sys ~seed:9 () in
  on_client ~eng sys (fun node ->
      ignore (System.submit sys ~from:node (Kv_app.Put (1, 7L)));
      Fabric.crash (Replica.node (System.replica sys ~part:0 ~idx:1));
      (match Migration.migrate sys ~from:node ~oids:[ Kv_app.oid_of_key 1 ] ~dst:0 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "migrate with a dead dst replica: %s" e);
      ignore (System.submit sys ~from:node (Kv_app.Add (1, 1L)));
      System.restart_replica sys ~part:0 ~idx:1;
      (* Traffic after the rejoin, touching the migrated key. *)
      match System.submit sys ~from:node (Kv_app.Add (1, 1L)) with
      | [ (_, Kv_app.Value v) ] -> check_bool "value intact" true (v = 9L)
      | _ -> Alcotest.fail "unexpected response");
  Engine.run_until eng (Time_ns.s 6);
  let restarted = System.replica sys ~part:0 ~idx:1 in
  check_bool "restarted replica is live" true
    (Fabric.is_alive (Replica.node restarted));
  check_bool "restarted replica holds the migrated-in cell" true
    (Versioned_store.mem (Replica.store restarted) (Kv_app.oid_of_key 1))

(* {1 Rebalancer} *)

let test_rebalancer_spreads_hotspot () =
  let eng, sys = make_sys ~seed:11 ~keys:8 () in
  let stop = ref false in
  for c = 0 to 3 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "hot-%d" c) in
    let rng = Random.State.make [| c; 77 |] in
    Fabric.spawn_on node (fun () ->
        while not !stop do
          (* Keys 0,2,4,6: all homed on partition 0. *)
          let key = 2 * Random.State.int rng 4 in
          ignore (System.submit sys ~from:node (Kv_app.Add (key, 1L)))
        done)
  done;
  let rb =
    Rebalancer.start
      ~policy:{ Rebalancer.default_policy with imbalance_x100 = 130 }
      sys
  in
  Engine.run_until eng (Time_ns.ms 30);
  Rebalancer.stop rb;
  stop := true;
  Engine.run_until eng (Engine.now eng + Time_ns.ms 1);
  check_bool "rebalancer ran" true (Rebalancer.rounds rb > 5);
  check_bool "objects moved" true (Rebalancer.moves rb > 0);
  (* The hot stripe is no longer concentrated on partition 0. *)
  let on_p0 =
    List.length
      (List.filter
         (fun k -> home sys k = App.Partition 0)
         [ 0; 2; 4; 6 ])
  in
  check_bool "hot keys spread" true (on_p0 < 4);
  check_bool "imbalance gauge live" true
    (Heron_obs.Metrics.gauge_value
       (Heron_obs.Metrics.gauge (System.config sys).Config.metrics
          "reconfig.imbalance_x100")
     > 0)

let test_rebalancer_leaves_balance_alone () =
  let eng, sys = make_sys ~seed:13 ~keys:8 () in
  let stop = ref false in
  for c = 0 to 3 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "uni-%d" c) in
    let rng = Random.State.make [| c; 78 |] in
    Fabric.spawn_on node (fun () ->
        while not !stop do
          (* Uniform over all keys: no imbalance to fix. *)
          ignore
            (System.submit sys ~from:node (Kv_app.Add (Random.State.int rng 8, 1L)))
        done)
  done;
  let rb = Rebalancer.start sys in
  Engine.run_until eng (Time_ns.ms 20);
  Rebalancer.stop rb;
  stop := true;
  Engine.run_until eng (Engine.now eng + Time_ns.ms 1);
  check_bool "rebalancer ran" true (Rebalancer.rounds rb > 5);
  check_int "no moves under balanced load" 0 (Rebalancer.moves rb);
  check_int "epoch untouched" 0 (Placement.epoch (Placement.view (System.directory sys)))

(* {1 Chaos integration}

   Reconfig-focused chaos schedules must complete and linearize, and
   the migrations in them must actually execute (not all be skipped) —
   otherwise the sweep would pass vacuously. *)

let test_chaos_reconfig_seeds () =
  let module Cdriver = Heron_chaos.Driver in
  let module Sched = Heron_chaos.Schedule in
  let migrations = ref 0 in
  let count sys = migrations := !migrations + counter_value sys "reconfig.migrations" in
  for seed = 0 to 15 do
    let sc = Sched.generate_reconfig ~seed in
    (match Sched.validate sc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid schedule: %s" seed e);
    match Cdriver.run ~inspect:count sc with
    | Cdriver.Completed _ -> ()
    | Cdriver.Failed f ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Cdriver.pp_failure f)
  done;
  check_bool "some chaos migrations committed" true (!migrations > 0)

let test_corpus_mid_migration_commits () =
  (* The pinned corpus schedule crashes a destination replica 4us after
     each migration starts; the run must linearize AND the migrations
     must have committed (the crash may not abort them). *)
  let file =
    let dir =
      if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
    in
    Filename.concat dir "reconfig_crash_mid_migration.json"
  in
  match Heron_chaos.Schedule.load ~file with
  | Error e -> Alcotest.failf "load %s: %s" file e
  | Ok sc -> (
      let migrations = ref 0 in
      let inspect sys = migrations := counter_value sys "reconfig.migrations" in
      match Heron_chaos.Driver.run ~inspect sc with
      | Heron_chaos.Driver.Completed _ ->
          check_bool "both pinned migrations committed" true (!migrations >= 2)
      | Heron_chaos.Driver.Failed f ->
          Alcotest.failf "pinned schedule failed: %s"
            (Format.asprintf "%a" Heron_chaos.Driver.pp_failure f))

let suite =
  [
    ( "reconfig.placement",
      [ tc "directory" test_placement_directory; tc "views" test_placement_views ] );
    ( "reconfig.migration",
      [
        tc "single key online" test_migrate_single_key;
        tc "batch + validation" test_migrate_batch_and_validation;
        tc "refused when disabled" test_migrate_disabled;
        tc "racing a crash/restart" test_migrate_with_restart;
      ] );
    ( "reconfig.rebalancer",
      [
        tc "spreads a hotspot" test_rebalancer_spreads_hotspot;
        tc "leaves balance alone" test_rebalancer_leaves_balance_alone;
      ] );
    ( "reconfig.chaos",
      [
        tc "reconfig seeds linearize" test_chaos_reconfig_seeds;
        tc "pinned mid-migration crash commits" test_corpus_mid_migration_commits;
      ] );
  ]

let () = Alcotest.run "heron_reconfig" suite
