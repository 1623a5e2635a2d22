open Heron_sim
open Heron_obs

(* Per-QP-pair metric handles, resolved once at connect time so the
   per-verb cost is a few integer bumps. *)
type verb_obs = {
  vo_count : Metrics.counter;
  vo_bytes : Metrics.counter;
  vo_lat : Metrics.histogram;
}

type obs = {
  o_read : verb_obs;
  o_write : verb_obs;
  o_write_post : verb_obs;
  o_cas : verb_obs;
  o_transfer : verb_obs;
  o_failures : Metrics.counter;  (* verbs that hit the failure timeout *)
  o_dropped : Metrics.counter;  (* posted writes dropped on a dead peer *)
}

type t = {
  qp_src : Fabric.node;
  qp_dst : Fabric.node;
  mutable busy_until : Time_ns.t;
  qp_obs : obs;
}

exception Rdma_exception of { target : int; verb : string }

let make_obs ~src ~dst =
  let reg = Fabric.metrics (Fabric.fabric_of src) in
  let pair = [ ("src", Fabric.node_name src); ("dst", Fabric.node_name dst) ] in
  let verb v =
    let labels = ("verb", v) :: pair in
    {
      vo_count = Metrics.counter reg ~labels "rdma.verb.count";
      vo_bytes = Metrics.counter reg ~labels "rdma.verb.bytes";
      vo_lat = Metrics.histogram reg ~labels "rdma.verb.latency_ns";
    }
  in
  {
    o_read = verb "read";
    o_write = verb "write";
    o_write_post = verb "write_post";
    o_cas = verb "cas";
    o_transfer = verb "transfer";
    o_failures = Metrics.counter reg ~labels:pair "rdma.failure_timeouts";
    o_dropped = Metrics.counter reg ~labels:pair "rdma.dropped_writes";
  }

let connect ~src ~dst =
  { qp_src = src; qp_dst = dst; busy_until = 0; qp_obs = make_obs ~src ~dst }

let src t = t.qp_src
let dst t = t.qp_dst
let dropped_writes t = Metrics.counter_value t.qp_obs.o_dropped

let prof_and_eng t =
  let fab = Fabric.fabric_of t.qp_src in
  (Fabric.engine fab, Fabric.profile fab)

(* Injected extra one-way latency on this QP's link (chaos layer). *)
let fault_delay t =
  Fabric.link_extra_ns (Fabric.fabric_of t.qp_src)
    ~src:(Fabric.node_id t.qp_src) ~dst:(Fabric.node_id t.qp_dst)

(* Whether posted writes on this QP's link are being dropped. *)
let fault_drops t =
  Fabric.link_drops (Fabric.fabric_of t.qp_src)
    ~src:(Fabric.node_id t.qp_src) ~dst:(Fabric.node_id t.qp_dst)

(* Reserve this QP for one verb carrying [bytes_len] payload bytes and
   return the completion instant. RC ordering: a verb starts only after
   the previous one on the same QP completed. Records count, bytes and
   post-to-completion latency (queuing included) against [vo]. *)
let reserve t vo ~bytes_len =
  let eng, prof = prof_and_eng t in
  let posted = Engine.now eng in
  Engine.consume prof.Profile.post_ns;
  let start = max (Engine.now eng) t.busy_until in
  let completion = start + Profile.verb_latency prof ~bytes_len + fault_delay t in
  t.busy_until <- completion;
  Metrics.incr vo.vo_count;
  Metrics.add vo.vo_bytes bytes_len;
  Metrics.observe vo.vo_lat (completion - posted);
  completion

(* A reliable connection does not survive its peer dying, even briefly:
   a verb fails unless the peer was alive at post time, is alive at
   completion time, and kept the same incarnation in between — a verb
   whose wire time straddles a crash (or a crash-and-reboot) must not
   touch the peer's memory, which may have been wiped and reused. *)
let await_completion t completion ~verb =
  let eng, prof = prof_and_eng t in
  let alive0 = Fabric.is_alive t.qp_dst in
  let epoch0 = Fabric.epoch t.qp_dst in
  Engine.sleep (completion - Engine.now eng);
  if
    not (alive0 && Fabric.is_alive t.qp_dst && Fabric.epoch t.qp_dst = epoch0)
  then begin
    Engine.sleep prof.Profile.failure_timeout_ns;
    Metrics.incr t.qp_obs.o_failures;
    raise (Rdma_exception { target = Fabric.node_id t.qp_dst; verb })
  end

let read t addr ~len =
  let completion = reserve t t.qp_obs.o_read ~bytes_len:len in
  await_completion t completion ~verb:"read";
  Fabric.local_read t.qp_dst addr ~len

let land_write t addr payload =
  Fabric.local_write t.qp_dst addr payload;
  Signal.broadcast (Fabric.mem_signal t.qp_dst)

let write t addr payload =
  let payload = Bytes.copy payload in
  let completion = reserve t t.qp_obs.o_write ~bytes_len:(Bytes.length payload) in
  await_completion t completion ~verb:"write";
  land_write t addr payload

let write_post t addr payload =
  let payload = Bytes.copy payload in
  let eng, _ = prof_and_eng t in
  let completion = reserve t t.qp_obs.o_write_post ~bytes_len:(Bytes.length payload) in
  let alive0 = Fabric.is_alive t.qp_dst in
  let epoch0 = Fabric.epoch t.qp_dst in
  Engine.schedule ~delay:(completion - Engine.now eng) eng (fun () ->
      if
        alive0
        && Fabric.is_alive t.qp_dst
        && Fabric.epoch t.qp_dst = epoch0
        && not (fault_drops t)
      then land_write t addr payload
      else Metrics.incr t.qp_obs.o_dropped)

(* {1 Doorbell batching}

   A batch posts many write WQEs with one doorbell per coalesce group:
   the first WQE of a group pays [post_ns] (WQE build + MMIO ring),
   each further WQE only [doorbell_ns]. Wire behaviour is unchanged —
   every WQE still serializes on its own QP ([busy_until]) and pays the
   full per-verb latency, so RC ordering and bandwidth are modelled
   exactly as for individual posts. [rdma.verb.count{verb=write_post}]
   counts doorbells (one per group, charged to the QP carrying the
   group's first WQE); bytes and latency stay per-WQE. *)

type wqe = { w_qp : t; w_addr : Memory.addr; w_payload : bytes }

(* Land one posted WQE at its completion instant, as [write_post]. *)
let schedule_wqe eng w ~completion =
  let alive0 = Fabric.is_alive w.w_qp.qp_dst in
  let epoch0 = Fabric.epoch w.w_qp.qp_dst in
  Engine.schedule ~delay:(completion - Engine.now eng) eng (fun () ->
      if
        alive0
        && Fabric.is_alive w.w_qp.qp_dst
        && Fabric.epoch w.w_qp.qp_dst = epoch0
        && not (fault_drops w.w_qp)
      then land_write w.w_qp w.w_addr w.w_payload
      else Metrics.incr w.w_qp.qp_obs.o_dropped)

(* Post [wqes] (in order) from the caller's fiber with doorbell
   coalescing. All WQEs must originate from the same source node. *)
let post_coalesced wqes =
  match wqes with
  | [] -> ()
  | first :: _ ->
      let eng, prof = prof_and_eng first.w_qp in
      let reg = Fabric.metrics (Fabric.fabric_of first.w_qp.qp_src) in
      let rings = Metrics.counter reg "rdma.doorbell.rings" in
      let wqe_count = Metrics.counter reg "rdma.doorbell.wqes" in
      let coalesced = Metrics.counter reg "rdma.doorbell.coalesced" in
      let group = ref [] (* reversed *) and group_len = ref 0 in
      let flush () =
        match List.rev !group with
        | [] -> ()
        | g_first :: _ as g ->
            let posted = Engine.now eng in
            (* One doorbell for the whole group. *)
            Engine.consume
              (prof.Profile.post_ns + ((!group_len - 1) * prof.Profile.doorbell_ns));
            Metrics.incr g_first.w_qp.qp_obs.o_write_post.vo_count;
            Metrics.incr rings;
            Metrics.add wqe_count !group_len;
            Metrics.add coalesced (!group_len - 1);
            List.iter
              (fun w ->
                let qp = w.w_qp in
                let bytes_len = Bytes.length w.w_payload in
                let start = max (Engine.now eng) qp.busy_until in
                let completion =
                  start + Profile.verb_latency prof ~bytes_len + fault_delay qp
                in
                qp.busy_until <- completion;
                Metrics.add qp.qp_obs.o_write_post.vo_bytes bytes_len;
                Metrics.observe qp.qp_obs.o_write_post.vo_lat (completion - posted);
                schedule_wqe eng w ~completion)
              g;
            group := [];
            group_len := 0
      in
      List.iter
        (fun w ->
          let w = { w with w_payload = Bytes.copy w.w_payload } in
          group := w :: !group;
          incr group_len;
          if !group_len >= prof.Profile.post_coalesce then flush ())
        wqes;
      flush ()

module Doorbell = struct
  type batch = { mutable b_wqes : wqe list (* reversed *); mutable b_len : int }

  let create () = { b_wqes = []; b_len = 0 }

  let add b qp addr payload =
    (match b.b_wqes with
    | w :: _ when w.w_qp.qp_src != qp.qp_src ->
        invalid_arg "Qp.Doorbell.add: all WQEs must share the source node"
    | _ -> ());
    b.b_wqes <- { w_qp = qp; w_addr = addr; w_payload = payload } :: b.b_wqes;
    b.b_len <- b.b_len + 1

  let length b = b.b_len

  let ring b =
    let wqes = List.rev b.b_wqes in
    b.b_wqes <- [];
    b.b_len <- 0;
    post_coalesced wqes
end

let cas t addr ~expected ~desired =
  let completion = reserve t t.qp_obs.o_cas ~bytes_len:8 in
  await_completion t completion ~verb:"cas";
  let r = Fabric.region t.qp_dst addr.Memory.mem_rid in
  let prev = Memory.get_i64 r ~off:addr.Memory.mem_off in
  if Int64.equal prev expected then begin
    Memory.set_i64 r ~off:addr.Memory.mem_off desired;
    Signal.broadcast (Fabric.mem_signal t.qp_dst)
  end;
  prev

let transfer t ~bytes_len =
  let completion = reserve t t.qp_obs.o_transfer ~bytes_len in
  await_completion t completion ~verb:"transfer"

let read_i64 t addr =
  let b = read t addr ~len:8 in
  Bytes.get_int64_le b 0

let write_i64 t addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t addr b
