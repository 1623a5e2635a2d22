(* Every Config.t the benchmark runs is built here, so that a change to
   how deployments are described is one edit in the benchmark. *)

open Heron_sim
open Heron_core

type features = {
  pipeline : bool;  (** compartmentalized pipeline with its defaults *)
  fast_reads : bool;  (** lease-based local reads with their defaults *)
  durability : bool;  (** checkpoints every 2 ms *)
  reconfig : bool;  (** live repartitioning (Migrate commands) *)
}

let paper_system =
  { pipeline = false; fast_reads = false; durability = false; reconfig = false }

let config ~partitions ~features ~metrics ~reqtrace =
  let c = Config.default ~partitions ~replicas:3 in
  {
    c with
    Config.metrics;
    reqtrace;
    pipeline = { Config.default_pipeline with pipe_enabled = features.pipeline };
    fast_reads = { Config.default_fast_reads with fr_enabled = features.fast_reads };
    durability =
      { Config.dur_enabled = features.durability; dur_interval_ns = Time_ns.ms 2 };
    reconfig = { Config.enabled = features.reconfig };
  }
