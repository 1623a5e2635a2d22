type coord_wait = Majority | Grace of int | Wait_all

type costs = {
  exec_base_ns : int;
  read_local_ns : int;
  write_local_ns : int;
  deser_per_byte_x100 : int;
  ser_per_byte_x100 : int;
  coord_post_ns : int;
  hiccup_pct : int;
  hiccup_max_ns : int;
  coord_check_slot_ns : int;
  transfer_chunk_bytes : int;
  redirect_backoff_ns : int;
}

type reconfig = { enabled : bool }

type durability = {
  dur_enabled : bool;
  dur_interval_ns : int;
}

type pipeline = {
  pipe_enabled : bool;
  pipe_batch_size : int;
  pipe_flush_timeout_ns : int;
  pipe_executors : int;
}

type fast_reads = {
  fr_enabled : bool;
  fr_lease_ns : int;
  fr_renew_ns : int;
  fr_write_wait : bool;
}

type topology = {
  topo_enabled : bool;
  topo_shards : int;
}

type t = {
  partitions : int;
  replicas : int;
  profile : Heron_rdma.Profile.t;
  mcast : Heron_multicast.Ramcast.config;
  costs : costs;
  wait_phase4 : coord_wait;
  statesync_timeout_ns : int;
  addr_query_ns : int;
  reconfig : reconfig;
  pipeline : pipeline;
  durability : durability;
  fast_reads : fast_reads;
  topology : topology;
  metrics : Heron_obs.Metrics.t;
  reqtrace : Heron_obs.Reqtrace.t option;
}

let default_costs =
  {
    exec_base_ns = 2_000;
    read_local_ns = 150;
    write_local_ns = 200;
    deser_per_byte_x100 = 95;
    ser_per_byte_x100 = 95;
    coord_post_ns = 150;
    hiccup_pct = 2;
    hiccup_max_ns = 12_000;
    coord_check_slot_ns = 200;
    transfer_chunk_bytes = 32_768;
    redirect_backoff_ns = 2_000;
  }

let default_reconfig = { enabled = false }
let default_durability = { dur_enabled = false; dur_interval_ns = 2_000_000 }

let default_pipeline =
  {
    pipe_enabled = false;
    pipe_batch_size = 8;
    pipe_flush_timeout_ns = 15_000;
    pipe_executors = 4;
  }

let default_fast_reads =
  {
    fr_enabled = false;
    fr_lease_ns = 2_000_000;
    fr_renew_ns = 800_000;
    fr_write_wait = true;
  }

let default_topology = { topo_enabled = false; topo_shards = 1 }

(* The epoch-0 shard table is a pure function of the deployment config,
   so replicas, clients and the directory each compute it locally and
   agree without coordination. *)
let initial_shards t =
  if t.topology.topo_enabled then
    Some
      (Heron_topology.Shard_map.initial ~shards:t.topology.topo_shards
         ~pool:t.partitions)
  else None

let default ~partitions ~replicas =
  if partitions <= 0 then invalid_arg "Config.default: partitions must be positive";
  if replicas <= 0 || replicas mod 2 = 0 then
    invalid_arg "Config.default: replicas must be odd and positive";
  {
    partitions;
    replicas;
    profile = Heron_rdma.Profile.default;
    mcast = Heron_multicast.Ramcast.default_config;
    costs = default_costs;
    wait_phase4 = Grace 5_000;
    statesync_timeout_ns = 5_000_000;
    addr_query_ns = 4_000;
    reconfig = default_reconfig;
    pipeline = default_pipeline;
    durability = default_durability;
    fast_reads = default_fast_reads;
    topology = default_topology;
    metrics = Heron_obs.Metrics.create ();
    reqtrace = None;
  }
