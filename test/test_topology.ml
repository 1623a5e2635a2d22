(* Tests for the elastic topology (lib/topology + Migration.split and
   merge): the hash ring, the shard table's split/merge algebra and the
   one placement resolver — pinned as qcheck properties — and
   end-to-end shard splits and merges on a live system (DESIGN.md
   §15). *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv
open Heron_topology
open Heron_reconfig

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tc name f = Alcotest.test_case name `Quick f

(* {1 Ring} *)

let test_ring_points () =
  (* Pure functions: recomputation agrees, range is the ring. *)
  for k = 0 to 1000 do
    let p = Ring.point_of_key k in
    check_bool "point stable" true (p = Ring.point_of_key k);
    check_bool "point in ring" true (0 <= p && p < Ring.space);
    let g = Ring.point_of_group k in
    check_bool "group point in ring" true (0 <= g && g < Ring.space)
  done;
  (* Key and group salts decorrelate the two point sets. *)
  check_bool "salted apart" true
    (Ring.point_of_key 3 <> Ring.point_of_group 3)

let test_ring_successor () =
  check_bool "empty candidates rejected" true
    (try
       ignore (Ring.successor ~point:0 ~groups:[]);
       false
     with Invalid_argument _ -> true);
  (* The successor is the clockwise-closest group, with wrap-around:
     walking from just past a group's own point must wrap to some
     other candidate, never stick. *)
  let groups = [ 0; 1; 2; 3 ] in
  List.iter
    (fun g ->
      let p = (Ring.point_of_group g + 1) mod Ring.space in
      let s = Ring.successor ~point:p ~groups in
      check_bool "successor is a candidate" true (List.mem s groups);
      let s' = Ring.successor ~point:p ~groups in
      check_bool "successor deterministic" true (s = s'))
    groups;
  (* A group is its own successor at its own point. *)
  List.iter
    (fun g ->
      check_int "own point" g
        (Ring.successor ~point:(Ring.point_of_group g) ~groups))
    groups

(* {1 Shard-table algebra (qcheck)} *)

(* A random but reachable table: start from a random initial layout and
   apply a few random splits and merges, ignoring rejections. *)
let table_gen =
  QCheck.Gen.(
    let* pool = int_range 2 8 in
    let* shards = int_range 1 pool in
    let* ops = list_size (int_bound 6) (pair bool (int_bound 16)) in
    let t = ref (Shard_map.initial ~shards ~pool) in
    List.iter
      (fun (is_split, i) ->
        let n = Shard_map.count !t in
        if is_split then (
          match Shard_map.split !t ~shard:(i mod n) ~pool with
          | Ok (t', _) -> t := t'
          | Error _ -> ())
        else if n >= 2 then
          match Shard_map.merge !t ~left:(i mod (n - 1)) with
          | Ok (t', _) -> t := t'
          | Error _ -> ())
      ops;
    return (pool, !t))

let table_arb =
  QCheck.make
    ~print:(fun (pool, t) -> Format.asprintf "pool=%d %a" pool Shard_map.pp t)
    table_gen

(* Placement is deterministic and a pure function of (shards, pool):
   the whole point of the epoch-0 table needing no coordination. *)
let placement_deterministic_prop =
  QCheck.Test.make ~name:"ring placement is deterministic" ~count:200
    QCheck.(pair (Qc.int_range 1 8) (Qc.int_range 0 1000))
    (fun (pool, key) ->
      let shards = 1 + (key mod pool) in
      let a = Shard_map.initial ~shards ~pool in
      let b = Shard_map.initial ~shards ~pool in
      Shard_map.equal a b
      && Shard_map.home a key = Shard_map.home b key
      && Shard_map.count a = shards)

(* Tables partition the ring: every point resolves to exactly the arc
   that contains it, and each group owns at most one shard. *)
let table_well_formed_prop =
  QCheck.Test.make ~name:"tables cover the ring, one shard per group"
    ~count:200 table_arb (fun (pool, t) ->
      let n = Shard_map.count t in
      let ok = ref ((Shard_map.arc t 0).Shard_map.s_lo = 0) in
      for i = 0 to n - 1 do
        let s = Shard_map.arc t i in
        ok := !ok && s.Shard_map.s_lo < s.Shard_map.s_hi;
        ok := !ok && s.Shard_map.s_group >= 0 && s.Shard_map.s_group < pool;
        if i < n - 1 then
          ok := !ok && s.Shard_map.s_hi = (Shard_map.arc t (i + 1)).Shard_map.s_lo
        else ok := !ok && s.Shard_map.s_hi = Ring.space;
        ok :=
          !ok
          && Shard_map.index_of_group t s.Shard_map.s_group = Some i
      done;
      !ok && n + List.length (Shard_map.free_groups t ~pool) = pool)

(* Split then merge of the resulting pair restores the original table
   exactly — what lets a cooled-down hotspot return the borrowed group
   with zero residue. *)
let split_merge_inverse_prop =
  QCheck.Test.make ~name:"merge undoes split exactly" ~count:200
    QCheck.(pair table_arb (int_bound 16))
    (fun ((pool, t), i) ->
      let shard = i mod Shard_map.count t in
      match Shard_map.split t ~shard ~pool with
      | Error _ -> QCheck.assume_fail ()
      | Ok (t', info) ->
          (match Shard_map.merge t' ~left:shard with
          | Error e -> QCheck.Test.fail_reportf "merge failed: %s" e
          | Ok (t'', minfo) ->
              Shard_map.equal t t''
              && minfo.Shard_map.mg_survivor = info.Shard_map.sp_parent
              && minfo.Shard_map.mg_dissolved = info.Shard_map.sp_child))

(* A split changes the home of precisely the keys whose ring points
   fall in the carved right half — minimal disruption. *)
let split_moves_only_carved_prop =
  QCheck.Test.make ~name:"split moves only carved-half keys" ~count:100
    table_arb (fun (pool, t) ->
      let shard = 0 in
      match Shard_map.split t ~shard ~pool with
      | Error _ -> QCheck.assume_fail ()
      | Ok (t', info) ->
          let ok = ref true in
          for key = 0 to 500 do
            let p = Ring.point_of_key key in
            let carved =
              info.Shard_map.sp_mid <= p && p < info.Shard_map.sp_hi
            in
            let before = Shard_map.home t key and after = Shard_map.home t' key in
            if carved then
              ok :=
                !ok && before = info.Shard_map.sp_parent
                && after = info.Shard_map.sp_child
            else ok := !ok && after = before
          done;
          !ok)

(* {1 One resolver (qcheck)}

   The directory, a client view refreshed from it and a replica view
   that installed the same commands one by one must resolve every
   object alike after every commit — and match a model of the
   resolution order (override, then shard table, then static oracle). *)

let qc_keys = 12

(* Every fourth object replicated, the rest spread round-robin. *)
let qc_static ~pool o =
  let k = Oid.to_int o in
  if k mod 4 = 3 then App.Replicated else App.Partition (k mod pool)

let views_agree_prop =
  QCheck.Test.make ~name:"views agree after every commit"
    ~count:300
    QCheck.(
      triple (Qc.int_range 2 4) (option (Qc.int_range 1 4))
        (small_list (triple (int_bound 2) (int_bound 15) (int_bound 15))))
    (fun (pool, shards, cmds) ->
      let initial =
        Option.map (fun n -> Shard_map.initial ~shards:(min n pool) ~pool) shards
      in
      let static = qc_static ~pool in
      let dir = Placement.create ?shards:initial () in
      let refreshed = Placement.fresh_view ?shards:initial () in
      let replayed = Placement.fresh_view ?shards:initial () in
      let overrides = Hashtbl.create 8 and table = ref initial in
      let expected oid =
        match (static oid, Hashtbl.find_opt overrides oid, !table) with
        | App.Replicated, _, _ -> App.Replicated
        | _, Some g, _ -> App.Partition g
        | _, None, Some sm -> App.Partition (Shard_map.home sm (Oid.to_int oid))
        | p, None, None -> p
      in
      let agree () =
        Placement.copy_view ~src:(Placement.view dir) ~dst:refreshed;
        let d = Placement.view dir in
        Placement.epoch d = Placement.epoch refreshed
        && Placement.epoch d = Placement.epoch replayed
        && List.for_all
             (fun k ->
               let oid = Oid.of_int k in
               let home = Placement.placement_under d static oid in
               home = Placement.placement_under refreshed static oid
               && home = Placement.placement_under replayed static oid
               && home = expected oid)
             (List.init qc_keys Fun.id)
      in
      let commit ?shards moves =
        let epoch = Placement.epoch (Placement.view dir) + 1 in
        Placement.commit ?shards dir ~epoch ~moves;
        Placement.install ?shards replayed ~epoch ~moves;
        List.iter (fun (oid, g) -> Hashtbl.replace overrides oid g) moves;
        Option.iter (fun sm -> table := Some sm) shards
      in
      agree ()
      && List.for_all
           (fun (kind, a, b) ->
             (match (kind, !table) with
             | 0, _ ->
                 let oid = Oid.of_int (a mod qc_keys) in
                 if static oid <> App.Replicated then commit [ (oid, b mod pool) ]
             | 1, Some sm -> (
                 match Shard_map.split sm ~shard:(a mod Shard_map.count sm) ~pool with
                 | Ok (sm', _) -> commit ~shards:sm' []
                 | Error _ -> ())
             | 2, Some sm when Shard_map.count sm >= 2 -> (
                 match Shard_map.merge sm ~left:(a mod (Shard_map.count sm - 1)) with
                 | Ok (sm', _) -> commit ~shards:sm' []
                 | Error _ -> ())
             | _ -> ());
             agree ())
           cmds)

(* Epoch-0 resolution is exactly what System.create loads: every
   replica of a partition holds the objects the directory places there
   (plus every replicated object), and nothing else. *)
let catalog_load_prop =
  QCheck.Test.make ~name:"epoch 0 resolves as loaded"
    ~count:40
    QCheck.(triple (Qc.int_range 1 4) (option (Qc.int_range 1 4)) (Qc.int_range 1 16))
    (fun (partitions, shards, keys) ->
      let static = qc_static ~pool:partitions in
      let kv = Kv_app.app ~keys ~partitions ~init:0L in
      let app =
        {
          kv with
          App.placement_of = static;
          catalog =
            (fun () ->
              List.map
                (fun spec ->
                  { spec with App.spec_placement = static spec.App.spec_oid })
                (kv.App.catalog ()));
        }
      in
      let cfg =
        {
          (Config.default ~partitions ~replicas:3) with
          Config.metrics = Heron_obs.Metrics.create ();
          reconfig = { Config.enabled = true };
          topology =
            (match shards with
            | Some n -> { Config.topo_enabled = true; topo_shards = min n partitions }
            | None -> Config.default_topology);
        }
      in
      let sys = System.create (Engine.create ~seed:1 ()) ~cfg ~app in
      let dir = Placement.view (System.directory sys) in
      List.for_all
        (fun spec ->
          let oid = spec.App.spec_oid in
          let home = Placement.placement_under dir static oid in
          Array.for_all
            (fun row ->
              Array.for_all
                (fun r ->
                  Versioned_store.mem (Replica.store r) oid
                  = (home = App.Replicated || home = App.Partition (Replica.part r)))
                row)
            (System.replicas sys))
        (app.App.catalog ()))

(* {1 Live splits and merges} *)

let make_sys ?(seed = 5) ?(keys = 8) ?(partitions = 4) ?(shards = 2) () =
  let eng = Engine.create ~seed () in
  let cfg =
    {
      (Config.default ~partitions ~replicas:3) with
      Config.metrics = Heron_obs.Metrics.create ();
      reconfig = { Config.enabled = true };
      topology = { Config.topo_enabled = true; topo_shards = shards };
    }
  in
  let sys =
    System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init:0L)
  in
  System.start sys;
  (eng, sys)

let counter_value sys name =
  Heron_obs.Metrics.counter_value
    (Heron_obs.Metrics.counter (System.config sys).Config.metrics name)

let gauge_value sys name =
  Heron_obs.Metrics.gauge_value
    (Heron_obs.Metrics.gauge (System.config sys).Config.metrics name)

let on_client ?(name = "t-client") ~eng sys f =
  let node = System.new_client_node sys ~name in
  let result = ref None in
  Fabric.spawn_on node (fun () -> result := Some (f node));
  Engine.run_until eng (Time_ns.s 5);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "client fiber did not finish"

let committed_table sys =
  match Placement.shards (Placement.view (System.directory sys)) with
  | Some t -> t
  | None -> Alcotest.fail "topology enabled but no committed table"

(* Every replica's view resolves ownership identically to the
   directory — the invariant the keep-or-redirect decision rests on. *)
let check_views_agree sys =
  let dir_epoch = Placement.epoch (Placement.view (System.directory sys)) in
  let t = committed_table sys in
  Array.iter
    (fun row ->
      Array.iter
        (fun r ->
          let v = Replica.placement_view r in
          check_int "replica at directory epoch" dir_epoch
            (Placement.epoch v);
          match Placement.shards v with
          | None -> Alcotest.fail "replica view lost the table"
          | Some tv -> check_bool "replica table agrees" true (Shard_map.equal t tv))
        row)
    (System.replicas sys)

let test_split_then_merge_live () =
  let eng, sys = make_sys () in
  let initial = Shard_map.initial ~shards:2 ~pool:4 in
  check_bool "epoch-0 table" true (Shard_map.equal initial (committed_table sys));
  on_client ~eng sys (fun node ->
      for k = 0 to 7 do
        ignore (System.submit sys ~from:node (Kv_app.Put (k, Int64.of_int (100 + k))))
      done;
      (* Split shard 0 onto a dormant group. *)
      let info =
        match Migration.split sys ~from:node ~shard:0 with
        | Ok o -> o
        | Error e -> Alcotest.failf "split failed: %s" e
      in
      check_int "split epoch" 1 (Placement.epoch (Placement.view (System.directory sys)));
      check_int "splits counter" 1 (counter_value sys "topology.splits");
      check_int "shards gauge" 3 (gauge_value sys "topology.shards");
      check_int "three shards committed" 3 (Shard_map.count (committed_table sys));
      check_bool "child was dormant" true
        (Shard_map.index_of_group initial info.Migration.rs_dst = None);
      (* Every key reads back through the new table; writes keep
         working wherever they now live. *)
      for k = 0 to 7 do
        match System.submit sys ~from:node (Kv_app.Get k) with
        | [ (_, Kv_app.Value v) ] ->
            check_bool "value survived the split" true (v = Int64.of_int (100 + k))
        | _ -> Alcotest.fail "unexpected response"
      done;
      for k = 0 to 7 do
        ignore (System.submit sys ~from:node (Kv_app.Add (k, 1L)))
      done;
      (* Merge the pair back: the table returns to the epoch-0 layout
         (the live counterpart of the qcheck inverse property). *)
      (match Migration.merge sys ~from:node ~left:0 with
      | Ok o ->
          check_int "merge returns the borrowed group" info.Migration.rs_dst
            o.Migration.rs_src
      | Error e -> Alcotest.failf "merge failed: %s" e);
      check_int "merge epoch" 2 (Placement.epoch (Placement.view (System.directory sys)));
      check_int "merges counter" 1 (counter_value sys "topology.merges");
      check_int "shards gauge back" 2 (gauge_value sys "topology.shards");
      check_bool "merge restored the epoch-0 table" true
        (Shard_map.equal initial (committed_table sys));
      for k = 0 to 7 do
        match System.submit sys ~from:node (Kv_app.Get k) with
        | [ (_, Kv_app.Value v) ] ->
            check_bool "value survived the merge" true (v = Int64.of_int (101 + k))
        | _ -> Alcotest.fail "unexpected response"
      done);
  check_views_agree sys

(* A migration's override outranks the shard table: a key pinned to a
   group stays there while the shard it hashes into splits and merges
   back, neither command moves it, and a split cannot start while a
   migration holds the exclusive slot. *)
let test_override_survives_reshard () =
  let keys = 16 in
  let eng, sys = make_sys ~keys () in
  let initial = committed_table sys in
  let point k = Ring.point_of_key (Oid.to_int (Kv_app.oid_of_key k)) in
  (* A shard whose split carves at least one key, and the carved keys. *)
  let shard, info, carved =
    let rec find s =
      if s >= Shard_map.count initial then Alcotest.fail "no split carves a key"
      else
        match Shard_map.split initial ~shard:s ~pool:4 with
        | Ok (_, info) -> (
            match
              List.filter
                (fun k ->
                  info.Shard_map.sp_mid <= point k && point k < info.Shard_map.sp_hi)
                (List.init keys Fun.id)
            with
            | [] -> find (s + 1)
            | carved -> (s, info, carved))
        | Error _ -> find (s + 1)
    in
    find 0
  in
  let k = List.hd carved in
  let oid = Kv_app.oid_of_key k in
  (* Pin k to a group that is neither side of the split. *)
  let g =
    List.find
      (fun g -> g <> info.Shard_map.sp_parent && g <> info.Shard_map.sp_child)
      [ 0; 1; 2; 3 ]
  in
  let home () =
    Placement.placement_under
      (Placement.view (System.directory sys))
      (System.app sys).App.placement_of oid
  in
  let read_back node expect =
    match System.submit sys ~from:node (Kv_app.Get k) with
    | [ (part, Kv_app.Value v) ] ->
        check_int "served by the pinned group" g part;
        check_bool "value intact" true (v = expect)
    | _ -> Alcotest.fail "unexpected response"
  in
  on_client ~eng sys (fun node ->
      ignore (System.submit sys ~from:node (Kv_app.Put (k, 7L)));
      (match Migration.migrate sys ~from:node ~oids:[ oid ] ~dst:g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "migrate failed: %s" e);
      check_bool "override installed" true (home () = App.Partition g);
      (match Migration.split sys ~from:node ~shard with
      | Ok o ->
          check_int "split skips the pinned key" (List.length carved - 1)
            o.Migration.rs_moved
      | Error e -> Alcotest.failf "split failed: %s" e);
      check_bool "override wins over the split table" true
        (home () = App.Partition g);
      Array.iter
        (fun r ->
          check_bool "child group never bootstrapped k" false
            (Versioned_store.mem (Replica.store r) oid))
        (System.replicas sys).(info.Shard_map.sp_child);
      read_back node 7L;
      (match Migration.merge sys ~from:node ~left:shard with
      | Ok o ->
          check_int "merge skips the pinned key" (List.length carved - 1)
            o.Migration.rs_moved
      | Error e -> Alcotest.failf "merge failed: %s" e);
      check_bool "override wins over the merged table" true
        (home () = App.Partition g);
      check_bool "merge restored the epoch-0 table" true
        (Shard_map.equal initial (committed_table sys));
      ignore (System.submit sys ~from:node (Kv_app.Add (k, 1L)));
      read_back node 8L;
      (* A split issued while a migration holds the exclusive slot is
         refused, not queued. *)
      let migrated = ref None in
      let mig = System.new_client_node sys ~name:"t-mig" in
      Fabric.spawn_on mig (fun () ->
          migrated :=
            Some
              (Migration.migrate sys ~from:mig ~oids:[ oid ]
                 ~dst:info.Shard_map.sp_parent));
      Engine.sleep (Time_ns.us 1);
      check_bool "migration still in flight" true (!migrated = None);
      (match Migration.split sys ~from:node ~shard with
      | Ok _ -> Alcotest.fail "split accepted while a migration was in flight"
      | Error _ -> ());
      while !migrated = None do
        Engine.sleep (Time_ns.us 10)
      done;
      check_bool "the migration committed" true (!migrated = Some (Ok ()));
      check_bool "k follows its last migration" true
        (home () = App.Partition info.Shard_map.sp_parent));
  check_views_agree sys

let test_elastic_validation () =
  let eng, sys = make_sys () in
  on_client ~eng sys (fun node ->
      (match Migration.split sys ~from:node ~shard:9 with
      | Ok _ -> Alcotest.fail "out-of-range split accepted"
      | Error _ -> ());
      (match Migration.merge sys ~from:node ~left:1 with
      | Ok _ -> Alcotest.fail "no adjacent pair at the last shard"
      | Error _ -> ());
      (* Exhaust the pool: with 4 groups, a third split must fail. *)
      let rec split_all () =
        match Migration.split sys ~from:node ~shard:0 with
        | Ok _ -> split_all ()
        | Error _ -> ()
      in
      split_all ();
      check_int "pool exhausted at 4 shards" 4
        (Shard_map.count (committed_table sys)));
  (* Disabled topology refuses the whole API. *)
  let eng2 = Engine.create ~seed:7 () in
  let cfg =
    {
      (Config.default ~partitions:2 ~replicas:3) with
      Config.metrics = Heron_obs.Metrics.create ();
      reconfig = { Config.enabled = true };
    }
  in
  let sys2 =
    System.create eng2 ~cfg ~app:(Kv_app.app ~keys:4 ~partitions:2 ~init:0L)
  in
  System.start sys2;
  ignore eng;
  let r = ref None in
  let node = System.new_client_node sys2 ~name:"t-client2" in
  Fabric.spawn_on node (fun () ->
      r := Some (Migration.split sys2 ~from:node ~shard:0));
  Engine.run_until eng2 (Time_ns.s 1);
  match !r with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "split accepted with topology disabled"
  | None -> Alcotest.fail "client fiber did not finish"

let suite =
  [
    ( "topology.ring",
      [
        tc "points are pure and in range" test_ring_points;
        tc "ring succession" test_ring_successor;
      ] );
    ( "topology.table",
      [
        Qc.test placement_deterministic_prop;
        Qc.test table_well_formed_prop;
        Qc.test split_merge_inverse_prop;
        Qc.test split_moves_only_carved_prop;
      ] );
    ( "topology.views",
      [ Qc.test views_agree_prop; Qc.test catalog_load_prop ] );
    ( "topology.live",
      [
        tc "split then merge on a live system" test_split_then_merge_live;
        tc "override outlives a reshard" test_override_survives_reshard;
        tc "validation and pool exhaustion" test_elastic_validation;
      ] );
  ]

let () = Alcotest.run "heron_topology" suite
