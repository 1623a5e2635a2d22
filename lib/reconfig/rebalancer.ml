open Heron_sim
open Heron_rdma
open Heron_core
module Shard_map = Heron_topology.Shard_map

type policy = {
  period_ns : int;
  imbalance_x100 : int;
  min_accesses : int;
  max_moves : int;
  split_min_accesses : int;
  split_patience : int;
  merge_max_accesses : int;
  merge_patience : int;
}

let default_policy =
  { period_ns = 1_000_000; imbalance_x100 = 150; min_accesses = 64; max_moves = 8;
    split_min_accesses = 256; split_patience = 2; merge_max_accesses = 16;
    merge_patience = 8 }

type t = {
  rb_policy : policy;
  rb_node : Fabric.node;
  mutable rb_stop : bool;
  mutable rb_rounds : int;
  mutable rb_moves : int;
  mutable rb_splits : int;
  mutable rb_merges : int;
  mutable rb_hot_rounds : int;  (* consecutive saturated-with-no-relief rounds *)
  mutable rb_cold_rounds : int;  (* consecutive rounds with a cold adjacent pair *)
}

let rounds t = t.rb_rounds
let moves t = t.rb_moves
let splits t = t.rb_splits
let merges t = t.rb_merges
let stop t = t.rb_stop <- true

(* The partition an object is homed at under the directory's view;
   [None] for replicated objects. *)
let home sys oid =
  match
    Placement.placement_under
      (Placement.view (System.directory sys))
      (System.app sys).App.placement_of oid
  with
  | App.Partition p -> Some p
  | App.Replicated -> None

(* Per-object demand over the last window: drain every live replica and
   take the per-object maximum — replicas of one partition see the same
   deliveries, and for a multi-partition request each destination counts
   the object once, so the maximum is one request's worth, not a sum
   over redundant observers. *)
let collect_counts sys =
  let tbl : (Oid.t, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun row ->
      Array.iter
        (fun r ->
          if Fabric.is_alive (Replica.node r) then
            List.iter
              (fun (oid, n) ->
                let prev = Option.value ~default:0 (Hashtbl.find_opt tbl oid) in
                if n > prev then Hashtbl.replace tbl oid n)
              (Replica.drain_access_counts r))
        row)
    (System.replicas sys);
  (* Deterministic order for everything downstream. *)
  List.sort
    (fun (o1, n1) (o2, n2) ->
      if n1 <> n2 then compare n2 n1 else compare (Oid.to_int o1) (Oid.to_int o2))
    (Hashtbl.fold (fun oid n acc -> (oid, n) :: acc) tbl [])

(* One load check; returns the objects to move (hottest first) and the
   destination, or None when balanced. *)
let plan sys policy counts ~gauge =
  let app = System.app sys in
  let partitions = (System.config sys).Config.partitions in
  let load = Array.make partitions 0 in
  let placed =
    List.filter_map
      (fun (oid, n) ->
        match home sys oid with
        | Some p ->
            load.(p) <- load.(p) + n;
            (* Only registered, partition-placed objects can move. *)
            if app.App.klass_of oid = Versioned_store.Registered then
              Some (oid, n, p)
            else None
        | None -> None)
      counts
  in
  let total = Array.fold_left ( + ) 0 load in
  if total < policy.min_accesses then None
  else begin
    let hot = ref 0 and cold = ref 0 in
    Array.iteri
      (fun p l ->
        if l > load.(!hot) then hot := p;
        if l < load.(!cold) then cold := p)
      load;
    let avg = max 1 (total / partitions) in
    Heron_obs.Metrics.set_gauge gauge (100 * load.(!hot) / avg);
    if 100 * load.(!hot) / avg < policy.imbalance_x100 || !hot = !cold then None
    else begin
      (* Move at most enough load to bring the hot partition down to —
         and the cold one up to — the average. *)
      let budget = ref (min (load.(!hot) - avg) (avg - load.(!cold))) in
      let picked = ref [] in
      let n_picked = ref 0 in
      List.iter
        (fun (oid, n, p) ->
          if p = !hot && n > 0 && n <= !budget && !n_picked < policy.max_moves
          then begin
            picked := oid :: !picked;
            incr n_picked;
            budget := !budget - n
          end)
        placed;
      match List.rev !picked with [] -> None | oids -> Some (oids, !cold)
    end
  end

(* Tier 2/3 (DESIGN.md §15): when moving objects cannot relieve a
   saturated group — every key it serves is hot, or tier 1 found
   nothing to move — split its shard so half the arc lands on a fresh
   group from the pool; when an adjacent pair of shards stays cold,
   merge them and return a group. Hysteresis lives in the thresholds
   ([split_min_accesses] well above [merge_max_accesses]) and the
   patience counters, so one burst never thrashes split-then-merge. *)
let topology_step t sys counts ~relieved =
  let cfg = System.config sys in
  if cfg.Config.topology.Config.topo_enabled then
    match Placement.shards (Placement.view (System.directory sys)) with
    | None -> ()
    | Some sm ->
        let policy = t.rb_policy in
        let partitions = cfg.Config.partitions in
        let load = Array.make partitions 0 in
        List.iter
          (fun (oid, n) ->
            match home sys oid with
            | Some p -> load.(p) <- load.(p) + n
            | None -> ())
          counts;
        (* Tier 2: split the hottest serving group's shard. *)
        let hot = ref None in
        Array.iter
          (fun s ->
            let g = s.Shard_map.s_group in
            match !hot with
            | Some (_, l) when l >= load.(g) -> ()
            | _ -> hot := Some (g, load.(g)))
          sm;
        (match !hot with
        | Some (g, l)
          when l >= policy.split_min_accesses && (not relieved)
               && Shard_map.free_groups sm ~pool:partitions <> [] ->
            t.rb_hot_rounds <- t.rb_hot_rounds + 1;
            if t.rb_hot_rounds >= policy.split_patience then begin
              t.rb_hot_rounds <- 0;
              match Shard_map.index_of_group sm g with
              | Some shard -> (
                  match Migration.split sys ~from:t.rb_node ~shard with
                  | Ok _ -> t.rb_splits <- t.rb_splits + 1
                  | Error _ -> ())
              | None -> ()
            end
        | _ -> t.rb_hot_rounds <- 0);
        (* Tier 3: merge the coldest adjacent pair. Requires some signal
           in the window — an idle warmup should not collapse the
           deployment-time table one epoch at a time. *)
        let total = Array.fold_left ( + ) 0 load in
        if Shard_map.count sm >= 2 && total > 0 then begin
          let best = ref None in
          for i = 0 to Shard_map.count sm - 2 do
            let a = (Shard_map.arc sm i).Shard_map.s_group in
            let b = (Shard_map.arc sm (i + 1)).Shard_map.s_group in
            let l = load.(a) + load.(b) in
            match !best with
            | Some (_, bl) when bl <= l -> ()
            | _ -> best := Some (i, l)
          done;
          match !best with
          | Some (i, l) when l <= policy.merge_max_accesses ->
              t.rb_cold_rounds <- t.rb_cold_rounds + 1;
              if t.rb_cold_rounds >= policy.merge_patience then begin
                t.rb_cold_rounds <- 0;
                match Migration.merge sys ~from:t.rb_node ~left:i with
                | Ok _ -> t.rb_merges <- t.rb_merges + 1
                | Error _ -> ()
              end
          | _ -> t.rb_cold_rounds <- 0
        end
        else t.rb_cold_rounds <- 0

let start ?(policy = default_policy) sys =
  let node = System.new_client_node sys ~name:"rebalancer" in
  let t =
    { rb_policy = policy; rb_node = node; rb_stop = false; rb_rounds = 0;
      rb_moves = 0; rb_splits = 0; rb_merges = 0; rb_hot_rounds = 0;
      rb_cold_rounds = 0 }
  in
  let cfg = System.config sys in
  let gauge =
    Heron_obs.Metrics.gauge cfg.Config.metrics "reconfig.imbalance_x100"
  in
  if cfg.Config.reconfig.Config.enabled && cfg.Config.partitions > 1 then
    Fabric.spawn_on t.rb_node (fun () ->
        let rec loop () =
          Engine.sleep policy.period_ns;
          if not t.rb_stop then begin
            t.rb_rounds <- t.rb_rounds + 1;
            let counts = collect_counts sys in
            let relieved =
              match plan sys policy counts ~gauge with
              | None -> false
              | Some (oids, dst) -> (
                  match Migration.migrate sys ~from:t.rb_node ~oids ~dst with
                  | Ok () ->
                      t.rb_moves <- t.rb_moves + List.length oids;
                      true
                  | Error _ -> false)
            in
            topology_step t sys counts ~relieved;
            loop ()
          end
        in
        loop ());
  t
