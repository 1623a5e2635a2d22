open Heron_obs
module Shard_map = Heron_topology.Shard_map

type view = {
  mutable v_epoch : int;
  v_overrides : (Oid.t, int) Hashtbl.t;
  mutable v_shards : Shard_map.t option;
}

let fresh_view ?shards () =
  { v_epoch = 0; v_overrides = Hashtbl.create 8; v_shards = shards }

let epoch v = v.v_epoch
let lookup v oid = Hashtbl.find_opt v.v_overrides oid
let shards v = v.v_shards
let size v = Hashtbl.length v.v_overrides

(* Wire size of a shipped view: epoch header, one (oid, partition) pair
   per override, one (lo, hi, group) arc per shard-table entry. *)
let wire_bytes v =
  8
  + (16 * Hashtbl.length v.v_overrides)
  + (match v.v_shards with Some sm -> 24 * Shard_map.count sm | None -> 0)

let install ?shards v ~epoch ~moves =
  if epoch > v.v_epoch then begin
    List.iter (fun (oid, part) -> Hashtbl.replace v.v_overrides oid part) moves;
    (match shards with Some sm -> v.v_shards <- Some sm | None -> ());
    v.v_epoch <- epoch
  end

let copy_view ~src ~dst =
  Hashtbl.reset dst.v_overrides;
  Hashtbl.iter (fun oid part -> Hashtbl.replace dst.v_overrides oid part)
    src.v_overrides;
  dst.v_shards <- src.v_shards;
  dst.v_epoch <- src.v_epoch

(* Resolution order: a per-object override (a §10 migration) wins, then
   the shard table (elastic topology, §15), then the static oracle.
   Replicated objects never move. The shard table replaces the static
   oracle wholesale for partition-placed objects — one lookup either
   way. *)
let placement_under v static oid =
  match static oid with
  | App.Replicated -> App.Replicated
  | App.Partition _ as p -> (
      match Hashtbl.find_opt v.v_overrides oid with
      | Some part -> App.Partition part
      | None -> (
          match v.v_shards with
          | Some sm -> App.Partition (Shard_map.home sm (Oid.to_int oid))
          | None -> p))

let destinations v app ~partitions req =
  App.destinations_under
    ~placement_of:(placement_under v app.App.placement_of)
    app ~partitions req

type t = {
  dir_view : view;
  mutable dir_busy : bool;
  mutable dir_metrics : Metrics.t option;
}

let create ?shards () =
  { dir_view = fresh_view ?shards (); dir_busy = false; dir_metrics = None }

let view t = t.dir_view

(* The directory is the only writer of the epoch and shard-count
   gauges. *)
let publish t =
  match t.dir_metrics with
  | None -> ()
  | Some reg -> (
      Metrics.set_gauge (Metrics.gauge reg "reconfig.epoch") t.dir_view.v_epoch;
      match t.dir_view.v_shards with
      | Some sm ->
          Metrics.set_gauge (Metrics.gauge reg "topology.shards") (Shard_map.count sm)
      | None -> ())

let attach_metrics t reg =
  t.dir_metrics <- Some reg;
  publish t

let commit ?shards t ~epoch ~moves =
  if epoch <> t.dir_view.v_epoch + 1 then
    invalid_arg
      (Printf.sprintf "Placement.commit: epoch %d, directory at %d" epoch
         t.dir_view.v_epoch);
  install ?shards t.dir_view ~epoch ~moves;
  publish t

let begin_exclusive t = if t.dir_busy then false else (t.dir_busy <- true; true)
let end_exclusive t = t.dir_busy <- false
