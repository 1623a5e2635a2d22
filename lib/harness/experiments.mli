(** One driver per table/figure of the paper's evaluation (Section V).

    Each function runs the experiment in virtual time and returns the
    result as printable tables mirroring the paper's rows/series.
    [quick] shrinks warmup/measure windows and the warehouse sweep so
    the full suite stays fast; the default parameters are the ones
    EXPERIMENTS.md records.

    Experiment index (see DESIGN.md):
    - {!fig4}: throughput of RamCast / Heron-null / Heron-TPCC /
      local-TPCC as warehouses grow.
    - {!fig5}: Heron vs DynaStar, throughput and latency.
    - {!fig6}: single-client latency breakdown
      (ordering/coordination/execution) and CDF for NewOrder pinned to
      1..4 partitions.
    - {!fig7}: per-transaction-type latency (single- vs
      multi-partition) and CDF.
    - {!table1}: delayed transactions and delay when coordination waits
      for all replicas; 2/4 partitions x 3/5 replicas.
    - {!fig8}: state-transfer latency: protocol-only, 64 KB / 640 KB /
      6.4 MB, serialized vs non-serialized, and full-warehouse
      recovery.

    [metrics], when given, is the registry every deployment of the
    experiment records into, so one registry can aggregate several
    experiments; by default each deployment owns a fresh one. *)

open Heron_stats

val fig4 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t
val fig5 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t
val fig6 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t * Table.t
(** Returns (latency breakdown, CDF points). *)

val fig7 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t * Table.t
(** Returns (per-type averages, CDF points). *)

val table1 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t
val fig8 : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t

val ablation_grace : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t
(** Extension of Section V-E's cut-off question: sweep the phase-4
    anti-lagger grace delay against a deliberately slow replica and
    report the trade-off between throughput/latency and lagger
    frequency (state transfers). *)

val ablation_parallel : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t
(** Extension of Section III-D.1 (the paper's future work): throughput
    and latency of local TPCC with the pipeline off, then on with 1, 2,
    4 and 8 executors per replica; non-conflicting single-partition
    requests execute concurrently. *)

val micro_kv : ?metrics:Heron_obs.Metrics.t -> ?quick:bool -> unit -> Table.t * Table.t
(** Extension: key-value microbenchmarks in the style of the
    full-replication RDMA systems Heron's related work compares against
    (Mu, DARE) — per-operation latency across value sizes, and YCSB
    mixes across key distributions. *)
