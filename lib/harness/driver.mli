(** Shared experiment machinery: closed-loop clients, warmup/measure
    windows, and saturation/latency measurements over Heron, the
    RamCast layer alone, and the DynaStar baseline.

    All measurements follow the paper's methodology (Section V-B):
    clients are closed-loop (one outstanding request each), latency is
    the client-observed submit-to-reply interval, throughput counts
    requests completed during the measurement window of virtual time,
    and replica-side statistics (ordering/coordination/execution
    breakdown, Table I delay counters) are the registry's diff over
    that window. *)

open Heron_sim
open Heron_stats
open Heron_core
open Heron_tpcc

type run_stats = {
  rs_throughput_tps : float;
  rs_latency : Sample_set.t;  (** client-observed, measurement window *)
  rs_latency_single : Sample_set.t;  (** single-partition requests *)
  rs_latency_multi : Sample_set.t;  (** multi-partition requests *)
  rs_completed : int;
  rs_window : Heron_obs.Metrics.snapshot;
      (** the deployment registry's diff over the measurement window
          ({!Heron_obs.Metrics.diff}); read it with
          {!Heron_obs.Metrics.find}, filtering by the replicas' [part]
          and [idx] labels *)
}

val run_system :
  ?warmup:Time_ns.t ->
  ?measure:Time_ns.t ->
  sys:('req, 'resp) System.t ->
  clients:int ->
  gen:(client:int -> Random.State.t -> 'req * int list option) ->
  unit ->
  run_stats
(** Drive an already-started Heron deployment with [clients] closed-loop
    clients. [gen] produces each request plus an optional explicit
    destination override (used by null-request workloads); when [None]
    the destinations come from the application. [rs_window] is the diff
    of the config's registry between the end of warmup and the end of
    the measurement window. *)

val window_count : run_stats -> labels:(string * string) list -> string -> int
(** A counter of [rs_window], summed over every series whose labels
    include [labels]; 0 when none does. *)

val window_hist : run_stats -> labels:(string * string) list -> string -> int * int
(** [(count, sum)] of a histogram of [rs_window], merged like
    {!window_count}. *)

val config :
  ?metrics:Heron_obs.Metrics.t -> partitions:int -> replicas:int -> unit -> Config.t
(** [Config.default] recording into [metrics] when given, else into the
    fresh registry [Config.default] makes. *)

val heron_tpcc_system :
  ?seed:int ->
  ?replicas:int ->
  ?metrics:Heron_obs.Metrics.t ->
  ?cfg_tweak:(Config.t -> Config.t) ->
  scale:Scale.t ->
  unit ->
  (Tx.req, Tx.resp) System.t
(** A started Heron+TPCC deployment with one partition per warehouse,
    configured by {!config} (then [cfg_tweak]). *)

val tpcc_gen :
  profile:Workload.profile ->
  scale:Scale.t ->
  client:int ->
  Random.State.t ->
  Tx.req * int list option
(** Standard client behaviour: client [i]'s home warehouse is
    [i mod warehouses + 1]; requests from the given mix. *)

type null_req = { nr_dst : int list; nr_bytes : int }

val null_app : (null_req, unit) App.t
(** An application with no state and an empty execute callback — the
    "Heron null requests" series of Figure 4, isolating coordination
    cost. Requests must be submitted with an explicit destination
    list. *)

val run_ramcast :
  ?seed:int ->
  ?warmup:Time_ns.t ->
  ?measure:Time_ns.t ->
  ?replicas:int ->
  ?metrics:Heron_obs.Metrics.t ->
  partitions:int ->
  clients:int ->
  gen_dst:(Random.State.t -> int list) ->
  msg_bytes:int ->
  unit ->
  run_stats
(** Throughput/latency of the atomic multicast alone (Figure 4's
    "Ramcast" series): clients multicast opaque messages and wait until
    every destination group delivered. [rs_window] covers the fabric's
    registry: [metrics] when given, else a fresh one. *)

val run_dynastar :
  ?seed:int ->
  ?warmup:Time_ns.t ->
  ?measure:Time_ns.t ->
  ?replicas:int ->
  ?config:Heron_dynastar.Dynastar.config ->
  scale:Scale.t ->
  clients:int ->
  profile:Workload.profile ->
  unit ->
  run_stats
(** Closed-loop TPCC over the DynaStar baseline (Figure 5). DynaStar
    records no metrics, so [rs_window] is empty. *)
