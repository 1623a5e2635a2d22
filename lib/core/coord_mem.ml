open Heron_rdma
open Heron_multicast

type t = {
  cm_node : Fabric.node;
  region : Memory.region;
  frontiers : Memory.region;
  replicas : int;  (* max replicas per partition, for slot indexing *)
  mutable slot_reads : Heron_obs.Metrics.counter option;
}

let slot_bytes = 16
let frontier_bytes = 8

let create node ~partitions ~replicas =
  let region = Fabric.alloc_region node ~size:(partitions * replicas * slot_bytes) in
  let frontiers =
    Fabric.alloc_region node ~size:(partitions * replicas * frontier_bytes)
  in
  { cm_node = node; region; frontiers; replicas; slot_reads = None }

let attach_metrics t reg =
  t.slot_reads <- Some (Heron_obs.Metrics.counter reg "coord.slot_reads")

let off t ~part ~idx = ((part * t.replicas) + idx) * slot_bytes

let slot_addr t ~part ~idx =
  Memory.addr ~node:(Fabric.node_id t.cm_node) t.region ~off:(off t ~part ~idx)

let read_slot t ~part ~idx =
  (match t.slot_reads with Some c -> Heron_obs.Metrics.incr c | None -> ());
  let off = off t ~part ~idx in
  let tmp = Tstamp.of_int64 (Memory.get_i64 t.region ~off) in
  let stage = Int64.to_int (Memory.get_i64 t.region ~off:(off + 8)) in
  (tmp, stage)

let write_local t ~part ~idx tmp ~stage =
  let off = off t ~part ~idx in
  Memory.set_i64 t.region ~off (Tstamp.to_int64 tmp);
  Memory.set_i64 t.region ~off:(off + 8) (Int64.of_int stage)

let encode_slot tmp ~stage =
  let b = Bytes.create slot_bytes in
  Bytes.set_int64_le b 0 (Tstamp.to_int64 tmp);
  Bytes.set_int64_le b 8 (Int64.of_int stage);
  b

let merge_slot t ~part ~idx img =
  let off = off t ~part ~idx in
  let tmp = Tstamp.of_int64 (Bytes.get_int64_le img 0) in
  let stage = Int64.to_int (Bytes.get_int64_le img 8) in
  let cur = Tstamp.of_int64 (Memory.get_i64 t.region ~off) in
  let cur_stage = Int64.to_int (Memory.get_i64 t.region ~off:(off + 8)) in
  if Tstamp.(cur < tmp) || (Tstamp.equal cur tmp && cur_stage < stage) then
    write_local t ~part ~idx tmp ~stage

let frontier_off t ~part ~idx = ((part * t.replicas) + idx) * frontier_bytes

let frontier_addr t ~part ~idx =
  Memory.addr ~node:(Fabric.node_id t.cm_node) t.frontiers
    ~off:(frontier_off t ~part ~idx)

let read_frontier t ~part ~idx =
  Tstamp.of_int64 (Memory.get_i64 t.frontiers ~off:(frontier_off t ~part ~idx))

let write_frontier_local t ~part ~idx tmp =
  Memory.set_i64 t.frontiers ~off:(frontier_off t ~part ~idx) (Tstamp.to_int64 tmp)

let encode_frontier tmp =
  let b = Bytes.create frontier_bytes in
  Bytes.set_int64_le b 0 (Tstamp.to_int64 tmp);
  b

let reached t ~part ~idx ~tmp ~stage =
  let slot_tmp, slot_stage = read_slot t ~part ~idx in
  (Tstamp.equal slot_tmp tmp && slot_stage >= stage) || Tstamp.(tmp < slot_tmp)

let count_reached ?(stop_at = max_int) t ~part ~replicas ~tmp ~stage =
  let n = ref 0 and idx = ref 0 in
  while !n < stop_at && !idx < replicas do
    if reached t ~part ~idx:!idx ~tmp ~stage then incr n;
    incr idx
  done;
  !n
