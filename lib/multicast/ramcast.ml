open Heron_sim
open Heron_rdma

type config = {
  proc_ns : int;
  submit_hdr_bytes : int;
  propose_bytes : int;
  ack_bytes : int;
  entry_hdr_bytes : int;
  leader_check_ns : int;
  resubmit_delay_ns : int;
}

let default_config =
  {
    proc_ns = 2_500;
    submit_hdr_bytes = 32;
    propose_bytes = 32;
    ack_bytes = 16;
    entry_hdr_bytes = 48;
    leader_check_ns = 200_000;
    resubmit_delay_ns = 100_000;
  }

type 'a delivery = {
  d_tmp : Tstamp.t;
  d_uid : int;
  d_dst : int list;
  d_payload : 'a;
}

type 'a msg_info = { mi_uid : int; mi_dst : int list; mi_payload : 'a; mi_size : int }

type 'a ctrl =
  | Submit of 'a msg_info
  | Propose of { p_uid : int; p_gid : int; p_ts : int }
  | Log_write of { entries : 'a delivery list }
  | Ack of { a_uid : int; a_from : int; a_epoch : int; a_applied : int }
      (* [a_from]/[a_epoch]: the acking member and its incarnation (the
         slot the ack lands in); [a_applied]: its applied log length *)
  | Commit of { c_uids : int list }

type 'a pending = {
  pn_msg : 'a msg_info;
  mutable pn_ts : int;  (* current max proposal *)
  mutable pn_heard : int list;  (* gids whose proposal we have *)
  mutable pn_final : bool;
  pn_arrived : Time_ns.t;  (* when this leader started proposing *)
}

type 'a commit = {
  cm_entries : 'a delivery list;
  cm_first : int;  (* logical log index of the first entry *)
  mutable cm_acked : int list;  (* followers that stored the entries *)
  cm_decided : Time_ns.t;  (* when the entries left the pending set *)
}

(* {1 Seen-uid set}

   The uids dispatched or delivered at one member, one bit per uid.
   [multicast] issues uids densely from 1 (a batch's reserved slots are
   never looked up), so a bitmap indexed by uid is exact and costs one
   bit per issued uid where a hash table paid about 40 bytes per
   delivered one. It grows by doubling and is never pruned (see
   {!reclaim}). *)
module Uidset = struct
  type t = { mutable bits : Bytes.t }

  let create () = { bits = Bytes.empty }

  let mem s uid =
    let byte = uid lsr 3 in
    byte < Bytes.length s.bits
    && Char.code (Bytes.unsafe_get s.bits byte) land (1 lsl (uid land 7)) <> 0

  let add s uid =
    let byte = uid lsr 3 in
    let len = Bytes.length s.bits in
    if byte >= len then begin
      let cap = ref (max 64 (2 * len)) in
      while byte >= !cap do
        cap := 2 * !cap
      done;
      let bits = Bytes.make !cap '\000' in
      Bytes.blit s.bits 0 bits 0 len;
      s.bits <- bits
    end;
    let b = Char.code (Bytes.unsafe_get s.bits byte) in
    Bytes.unsafe_set s.bits byte (Char.unsafe_chr (b lor (1 lsl (uid land 7))))

  let clear s = s.bits <- Bytes.empty

  (* Make [dst] hold exactly the uids of [src]. *)
  let copy ~src dst = dst.bits <- Bytes.copy src.bits
end

type 'a member = {
  m_gid : int;
  m_idx : int;
  m_node : Fabric.node;
  m_inbox : 'a ctrl Mailbox.t;
  m_deliveries : Heron_obs.Metrics.counter;  (* mcast.deliveries, shared *)
  mutable m_deliver : 'a delivery -> unit;
  mutable m_applied : (unit -> Tstamp.t) option;
      (* the consumer's applied frontier; None: delivering is applying *)
  mutable m_applied_len : int;  (* logical length of the applied prefix *)
  (* Leader state (maintained lazily; meaningful while this member acts
     as leader, reconstructed on takeover). *)
  mutable m_clock : int;
  m_pending : (int, 'a pending) Hashtbl.t;
  m_early : (int, (int * int) list) Hashtbl.t;  (* uid -> (gid, ts) *)
  m_submits : (int, 'a msg_info) Hashtbl.t;  (* follower stash *)
  m_commits : 'a commit Queue.t;
  m_commit_of : (int, 'a commit) Hashtbl.t;  (* uid -> its queued commit *)
  m_seen : Uidset.t;  (* uids dispatched or delivered here *)
  mutable m_log : 'a delivery array;  (* retained entries, in leader order *)
  mutable m_log_len : int;  (* logical length: compacted + retained *)
  mutable m_log_start : int;  (* logical index of m_log.(0) (compacted prefix) *)
  mutable m_compacted_tmp : Tstamp.t;  (* d_tmp of the last compacted entry *)
  m_committed : (int, unit) Hashtbl.t;  (* uids safe to deliver *)
  mutable m_next_deliver : int;  (* logical index into the log *)
  mutable m_delivered : int;
  m_reports : int array;
      (* leader: the applied length each member last reported on an
         ack; never above that member's current [m_applied_len] *)
}

type 'a group = { g_gid : int; g_members : 'a member array; mutable g_leader : int }

type obs = {
  ob_submits : Heron_obs.Metrics.counter;
  ob_rounds : Heron_obs.Metrics.counter;  (* timestamp proposal rounds *)
  ob_takeovers : Heron_obs.Metrics.counter;
  ob_compacted : Heron_obs.Metrics.counter;  (* entries dropped by reclaim *)
  ob_rejoin_replayed : Heron_obs.Metrics.counter;  (* entries copied on restart *)
  ob_rejoin_bytes : Heron_obs.Metrics.counter;  (* payload bytes of those *)
}

type 'a t = {
  fab : Fabric.t;
  cfg : config;
  size_of : 'a -> int;
  groups : 'a group array;
  links : (int * int, Qp.t) Hashtbl.t;
  obs : obs;
  trc : (Heron_obs.Reqtrace.t * ('a -> (int * int) list)) option;
      (* request-scoped tracing: collector plus a projection reading
         (trace id, parent span id) pairs out of a payload — one pair
         per traced request the payload carries (batches carry many) *)
  mutable next_uid : int;
}

let now t = Engine.now (Fabric.engine t.fab)

(* Emit an ordering-layer span against the payload's request trace, if
   this deployment traces and the payload carries a trace id. *)
let req_span t ~stage ~gid ~start ~stop payload =
  match t.trc with
  | None -> ()
  | Some (col, proj) ->
      List.iter
        (fun (trace, parent) ->
          if trace <> 0 then
            ignore
              (Heron_obs.Reqtrace.add_span col ~trace ~parent ~stage
                 ~attrs:[ ("gid", string_of_int gid) ]
                 ~start stop))
        (proj payload)

(* {1 Control links}

   Control traffic is modelled as a timing-and-failure-correct transfer
   on a cached QP followed by a mailbox send; see Qp.transfer. *)

let link t ~src ~dst =
  let key = (Fabric.node_id src, Fabric.node_id dst) in
  match Hashtbl.find_opt t.links key with
  | Some qp -> qp
  | None ->
      let qp = Qp.connect ~src ~dst in
      Hashtbl.replace t.links key qp;
      qp

(* Blocking control send; raises Qp.Rdma_exception if [dst] is dead. *)
let send_ctrl t ~src ~(dst : 'a member) ~bytes msg =
  Qp.transfer (link t ~src ~dst:dst.m_node) ~bytes_len:bytes;
  Mailbox.send dst.m_inbox msg

(* Fire-and-forget control send from a fiber on [src]. *)
let post_ctrl t ~src ~(dst : 'a member) ~bytes msg =
  Fabric.spawn_on src (fun () ->
      try send_ctrl t ~src ~dst ~bytes msg
      with Qp.Rdma_exception _ -> ())

(* {1 Accessors} *)

let group_count t = Array.length t.groups

let members t ~gid =
  Array.map (fun m -> m.m_node) t.groups.(gid).g_members

let leader_idx t ~gid = t.groups.(gid).g_leader
let delivered_count t ~gid ~idx = t.groups.(gid).g_members.(idx).m_delivered

(* Log indices are logical: physical slot = logical - m_log_start.
   Reclamation (see [reclaim]) drops an applied-everywhere prefix by
   advancing m_log_start; m_log_len and m_next_deliver keep counting
   from the beginning of time, so all cross-member comparisons are
   unchanged. *)
let log_get (m : 'a member) i = m.m_log.(i - m.m_log_start)
let log_retained_of (m : 'a member) = m.m_log_len - m.m_log_start

let dispatch_horizon t ~gid =
  let g = t.groups.(gid) in
  let lead = g.g_members.(g.g_leader) in
  if lead.m_log_len = 0 then Tstamp.zero
  else if lead.m_log_len = lead.m_log_start then lead.m_compacted_tmp
  else (log_get lead (lead.m_log_len - 1)).d_tmp
let quorum t ~gid = (Array.length t.groups.(gid).g_members / 2) + 1

let debug_state t ~gid =
  let g = t.groups.(gid) in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "group %d leader=%d\n" gid g.g_leader);
  Array.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf
           "  m%d alive=%b log_len=%d log_start=%d next_deliver=%d applied=%d \
            delivered=%d pending=%d commits=%d head_acks=%s committed=%d\n"
           m.m_idx
           (Fabric.is_alive m.m_node)
           m.m_log_len m.m_log_start m.m_next_deliver m.m_applied_len m.m_delivered
           (Hashtbl.length m.m_pending)
           (Queue.length m.m_commits)
           (match Queue.peek_opt m.m_commits with
           | None -> "-"
           | Some c ->
               Printf.sprintf "%d/%d(uid %s)" (List.length c.cm_acked)
                 (List.length c.cm_entries)
                 (String.concat ","
                    (List.map (fun e -> string_of_int e.d_uid) c.cm_entries)))
           (Hashtbl.length m.m_committed)))
    g.g_members;
  Buffer.contents b

let current_leader t gid =
  let g = t.groups.(gid) in
  g.g_members.(g.g_leader)

let is_leader (t : 'a t) (m : 'a member) = t.groups.(m.m_gid).g_leader = m.m_idx

(* {1 Leader logic} *)

let entry_bytes t (e : 'a delivery) = t.size_of e.d_payload + t.cfg.entry_hdr_bytes

(* Deliver [e] at member [m] exactly once. *)
let deliver_local (m : 'a member) (e : 'a delivery) =
  m.m_delivered <- m.m_delivered + 1;
  Heron_obs.Metrics.incr m.m_deliveries;
  m.m_deliver e

let log_push (m : 'a member) e =
  let phys = log_retained_of m in
  let cap = Array.length m.m_log in
  if phys = cap then begin
    let nlog = Array.make (max 64 (cap * 2)) e in
    Array.blit m.m_log 0 nlog 0 phys;
    m.m_log <- nlog
  end;
  m.m_log.(phys) <- e;
  m.m_log_len <- m.m_log_len + 1

(* Follower: deliver the committed prefix of the accepted log, in
   leader order. *)
let drain_follower (m : 'a member) =
  let continue_ = ref true in
  while !continue_ && m.m_next_deliver < m.m_log_len do
    let e = log_get m m.m_next_deliver in
    if Hashtbl.mem m.m_committed e.d_uid then begin
      Hashtbl.remove m.m_committed e.d_uid;
      m.m_next_deliver <- m.m_next_deliver + 1;
      deliver_local m e
    end
    else continue_ := false
  done

(* {1 Log reclamation}

   The leader drops the log prefix that every live member's consumer
   has applied, at every live member at once (a uniform cut). A
   restarted member is covered up to its donor's applied frontier by
   the layer above's state transfer, and the donor is a live member at
   or past the cut, so a rejoiner only needs the suffix after it.
   Followers report their applied length on the ack of each log write;
   the leader adds its own and cuts at the minimum over live members.
   Logical indices keep counting from the beginning of time, so the cut
   is invisible to the protocol; only the entry memory is freed.
   The seen-uid set is intentionally NOT pruned: a late duplicate
   Submit for a dropped uid must still be recognized as seen, or a
   future takeover could re-propose it under a new timestamp and
   deliver it twice. As a bitmap ({!Uidset}) it still grows with
   history, by one bit per issued uid; a per-origin watermark would
   bound it (DESIGN.md §13). *)

(* Logical length of the prefix [m] has delivered. A leader appends an
   entry when it decides it but delivers it at commit, so its queued
   commits (a follower has none) are not delivered yet. *)
let delivered_len (m : 'a member) =
  match Queue.peek_opt m.m_commits with
  | Some c -> c.cm_first
  | None -> m.m_next_deliver

(* Logical length of the prefix [m]'s consumer has applied. An entry
   counts as applied once its delivered successor's timestamp is at or
   below the applied frontier: a batched entry spans slot timestamps
   above its own, all below its successor's. *)
let applied_len (m : 'a member) =
  let delivered = delivered_len m in
  (match m.m_applied with
  | None -> m.m_applied_len <- delivered
  | Some frontier ->
      let f = frontier () in
      while
        m.m_applied_len + 1 < delivered
        && Tstamp.((log_get m (m.m_applied_len + 1)).d_tmp <= f)
      do
        m.m_applied_len <- m.m_applied_len + 1
      done);
  m.m_applied_len

let ack (m : 'a member) ~uid =
  Ack
    { a_uid = uid; a_from = m.m_idx; a_epoch = Fabric.epoch m.m_node;
      a_applied = applied_len m }

(* Drop everything below logical index [k] at every live member. Every
   live member's applied length is at least [k], so none loses an entry
   it has yet to deliver. Compacting only once the droppable prefix is
   half the retained log keeps the copy of the kept suffix amortised
   O(1) per dropped entry. *)
let reclaim t (lead : 'a member) =
  let g = t.groups.(lead.m_gid) in
  let k = ref (applied_len lead) in
  Array.iter
    (fun (m : 'a member) ->
      if m.m_idx <> lead.m_idx && Fabric.is_alive m.m_node then
        k := min !k lead.m_reports.(m.m_idx))
    g.g_members;
  let k = !k in
  let dropped = k - lead.m_log_start in
  if dropped > 0 && 2 * dropped >= log_retained_of lead then begin
    Array.iter
      (fun (m : 'a member) ->
        if Fabric.is_alive m.m_node && m.m_log_start < k then begin
          let drop = k - m.m_log_start in
          m.m_compacted_tmp <- (log_get m (k - 1)).d_tmp;
          m.m_log <- Array.sub m.m_log drop (log_retained_of m - drop);
          m.m_log_start <- k
        end)
      g.g_members;
    Heron_obs.Metrics.add t.obs.ob_compacted dropped
  end

let drain_commits t (m : 'a member) =
  let f = Array.length t.groups.(m.m_gid).g_members / 2 in
  let rec loop () =
    match Queue.peek_opt m.m_commits with
    | Some c when List.length c.cm_acked >= f ->
        ignore (Queue.pop m.m_commits);
        List.iter (fun e -> Hashtbl.remove m.m_commit_of e.d_uid) c.cm_entries;
        (* Majority replication: decision until the leader's delivery. *)
        List.iter
          (fun e ->
            req_span t ~stage:"mcast.commit" ~gid:m.m_gid ~start:c.cm_decided
              ~stop:(now t) e.d_payload)
          c.cm_entries;
        List.iter (deliver_local m) c.cm_entries;
        (* Followers deliver on this notification, so the leader
           delivers first (as in RamCast). *)
        let notice = Commit { c_uids = List.map (fun e -> e.d_uid) c.cm_entries } in
        Array.iter
          (fun (fo : 'a member) ->
            if fo.m_idx <> m.m_idx then
              post_ctrl t ~src:m.m_node ~dst:fo
                ~bytes:(8 + (8 * List.length c.cm_entries))
                notice)
          t.groups.(m.m_gid).g_members;
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  reclaim t m

(* Turn a decided pending message into a log entry at the leader. *)
let decide t (m : 'a member) (p : 'a pending) =
  let entry =
    {
      d_tmp = Tstamp.make ~clock:p.pn_ts ~uid:p.pn_msg.mi_uid;
      d_uid = p.pn_msg.mi_uid;
      d_dst = p.pn_msg.mi_dst;
      d_payload = p.pn_msg.mi_payload;
    }
  in
  (* Skeen timestamp agreement: submit arrival at this leader until the
     message left the pending set with its final timestamp. *)
  req_span t ~stage:"mcast.order" ~gid:m.m_gid ~start:p.pn_arrived
    ~stop:(now t) entry.d_payload;
  Uidset.add m.m_seen entry.d_uid;
  Hashtbl.remove m.m_pending entry.d_uid;
  Hashtbl.remove m.m_early entry.d_uid;
  log_push m entry;
  m.m_next_deliver <- m.m_log_len;
  entry

(* Replicate decided entries to the followers and queue them for local
   delivery once a majority of the group stores them. Every entry that
   became deliverable together travels in one write and commits
   together, amortizing per-message processing as RamCast does. A write
   of several entries carries a 16-byte batch header; a lone entry
   travels without one. *)
let replicate t (m : 'a member) entries =
  let hdr = match entries with [ _ ] -> 0 | _ -> 16 in
  let bytes = List.fold_left (fun acc e -> acc + entry_bytes t e) hdr entries in
  Array.iter
    (fun (fo : 'a member) ->
      if fo.m_idx <> m.m_idx then
        post_ctrl t ~src:m.m_node ~dst:fo ~bytes (Log_write { entries }))
    t.groups.(m.m_gid).g_members;
  let c =
    { cm_entries = entries; cm_first = m.m_log_len - List.length entries;
      cm_acked = []; cm_decided = now t }
  in
  List.iter (fun e -> Hashtbl.replace m.m_commit_of e.d_uid c) entries;
  Queue.push c m.m_commits;
  drain_commits t m

(* Dispatch every pending message that is final and minimal by
   (timestamp, uid) among all pending messages of the group. *)
let try_dispatch t (m : 'a member) =
  let min_pending () =
    Hashtbl.fold
      (fun _ p acc ->
        match acc with
        | None -> Some p
        | Some q ->
            if
              p.pn_ts < q.pn_ts
              || (p.pn_ts = q.pn_ts && p.pn_msg.mi_uid < q.pn_msg.mi_uid)
            then Some p
            else acc)
      m.m_pending None
  in
  let rec gather acc =
    match min_pending () with
    | Some p when p.pn_final -> gather (decide t m p :: acc)
    | Some _ | None -> List.rev acc
  in
  match gather [] with [] -> () | entries -> replicate t m entries

let record_proposal (p : 'a pending) ~gid ~ts =
  if not (List.mem gid p.pn_heard) then begin
    p.pn_heard <- gid :: p.pn_heard;
    p.pn_ts <- max p.pn_ts ts
  end

let maybe_finalize t (m : 'a member) (p : 'a pending) =
  if (not p.pn_final) && List.length p.pn_heard = List.length p.pn_msg.mi_dst
  then begin
    p.pn_final <- true;
    m.m_clock <- max m.m_clock p.pn_ts;
    try_dispatch t m
  end

(* Propose a timestamp for [mi] and exchange proposals with the other
   destination groups. [reuse] carries a proposal of a previous leader
   of this group (takeover path) that must be kept for consistency. *)
let propose t (m : 'a member) (mi : 'a msg_info) ~reuse =
  Heron_obs.Metrics.incr t.obs.ob_rounds;
  let ts =
    match reuse with
    | Some ts -> ts
    | None ->
        m.m_clock <- m.m_clock + 1;
        m.m_clock
  in
  m.m_clock <- max m.m_clock ts;
  let p =
    { pn_msg = mi; pn_ts = ts; pn_heard = [ m.m_gid ]; pn_final = false;
      pn_arrived = now t }
  in
  Hashtbl.replace m.m_pending mi.mi_uid p;
  (* Merge proposals that arrived before the submit. *)
  (match Hashtbl.find_opt m.m_early mi.mi_uid with
  | Some props -> List.iter (fun (gid, ts) -> record_proposal p ~gid ~ts) props
  | None -> ());
  let prop = Propose { p_uid = mi.mi_uid; p_gid = m.m_gid; p_ts = ts } in
  List.iter
    (fun gid ->
      if gid <> m.m_gid then begin
        let dst_leader = current_leader t gid in
        post_ctrl t ~src:m.m_node ~dst:dst_leader ~bytes:t.cfg.propose_bytes prop;
        Array.iter
          (fun (f : 'a member) ->
            if f.m_idx <> dst_leader.m_idx then
              post_ctrl t ~src:m.m_node ~dst:f ~bytes:t.cfg.propose_bytes prop)
          t.groups.(gid).g_members
      end)
    mi.mi_dst;
  (* Durably stash our own proposal at our followers so a successor
     leader reuses the same value. *)
  Array.iter
    (fun (f : 'a member) ->
      if f.m_idx <> m.m_idx then
        post_ctrl t ~src:m.m_node ~dst:f ~bytes:t.cfg.propose_bytes prop)
    t.groups.(m.m_gid).g_members;
  maybe_finalize t m p

(* Follower: store a replicated entry; true if it was new. *)
let accept_entry (m : 'a member) entry =
  if Uidset.mem m.m_seen entry.d_uid then false
  else begin
    Uidset.add m.m_seen entry.d_uid;
    Hashtbl.remove m.m_submits entry.d_uid;
    Hashtbl.remove m.m_early entry.d_uid;
    m.m_clock <- max m.m_clock entry.d_tmp.Tstamp.clock;
    log_push m entry;
    true
  end

let stash_early (m : 'a member) ~uid ~gid ~ts =
  let props = Option.value ~default:[] (Hashtbl.find_opt m.m_early uid) in
  if not (List.exists (fun (g, _) -> g = gid) props) then
    Hashtbl.replace m.m_early uid ((gid, ts) :: props)

let handle_ctrl t (m : 'a member) ctrl =
  Engine.consume t.cfg.proc_ns;
  let leader = is_leader t m in
  match ctrl with
  | Submit mi ->
      if Uidset.mem m.m_seen mi.mi_uid || Hashtbl.mem m.m_pending mi.mi_uid
      then ()
      else if leader then propose t m mi ~reuse:None
      else Hashtbl.replace m.m_submits mi.mi_uid mi
  | Propose { p_uid; p_gid; p_ts } ->
      m.m_clock <- max m.m_clock p_ts;
      if Uidset.mem m.m_seen p_uid then ()
      else if leader then begin
        match Hashtbl.find_opt m.m_pending p_uid with
        | Some p ->
            record_proposal p ~gid:p_gid ~ts:p_ts;
            maybe_finalize t m p
        | None -> stash_early m ~uid:p_uid ~gid:p_gid ~ts:p_ts
      end
      else stash_early m ~uid:p_uid ~gid:p_gid ~ts:p_ts
  | Log_write { entries } ->
      (* One ack for the write: the leader counts it for the commit
         that holds the entries. *)
      let accepted = List.filter (accept_entry m) entries in
      (match List.rev accepted with
      | last :: _ ->
          let lead = current_leader t m.m_gid in
          post_ctrl t ~src:m.m_node ~dst:lead ~bytes:t.cfg.ack_bytes
            (ack m ~uid:last.d_uid);
          drain_follower m
      | [] -> ())
  | Commit { c_uids } ->
      List.iter (fun uid -> Hashtbl.replace m.m_committed uid ()) c_uids;
      drain_follower m
  | Ack { a_uid; a_from; a_epoch; a_applied } ->
      (* A uid is decided once, so at most one queued commit holds it;
         an ack for a commit already delivered finds none. A follower
         counts once per commit, also when it acks again after a
         restart. *)
      Option.iter
        (fun c ->
          if not (List.mem a_from c.cm_acked) then c.cm_acked <- a_from :: c.cm_acked)
        (Hashtbl.find_opt m.m_commit_of a_uid);
      (* A report from an earlier incarnation of the member, still
         queued here, says nothing about the log it holds now. *)
      let from = t.groups.(m.m_gid).g_members.(a_from) in
      if Fabric.epoch from.m_node = a_epoch && a_applied > m.m_reports.(a_from) then
        m.m_reports.(a_from) <- a_applied;
      if leader then drain_commits t m

(* {1 Leader takeover} *)

(* Synchronise the replicated log from the live members (charging a
   transfer of the missing suffix) and adopt leadership. *)
let takeover t (m : 'a member) =
  Heron_obs.Metrics.incr t.obs.ob_takeovers;
  let g = t.groups.(m.m_gid) in
  (* Pull the longest log among live members. *)
  Array.iter
    (fun (peer : 'a member) ->
      if peer.m_idx <> m.m_idx && Fabric.is_alive peer.m_node then begin
        let missing = max 0 (peer.m_log_len - m.m_log_len) in
        if missing > 0 then begin
          (* The taker is live, so its logical length is at least the
             group's compaction cut — the peer still retains every
             entry the taker is missing. *)
          let entries =
            List.init missing (fun i -> log_get peer (m.m_log_len + i))
          in
          let bytes =
            List.fold_left (fun acc e -> acc + entry_bytes t e) 0 entries
          in
          (try Qp.transfer (link t ~src:m.m_node ~dst:peer.m_node) ~bytes_len:bytes
           with Qp.Rdma_exception _ -> ());
          List.iter
            (fun e ->
              if not (Uidset.mem m.m_seen e.d_uid) then begin
                Uidset.add m.m_seen e.d_uid;
                m.m_clock <- max m.m_clock e.d_tmp.Tstamp.clock;
                log_push m e
              end)
            entries
        end
      end)
    g.g_members;
  (* Deliver everything accepted but not yet delivered, in log order:
     accepted entries were decided by the previous leader. *)
  while m.m_next_deliver < m.m_log_len do
    let e = log_get m m.m_next_deliver in
    Hashtbl.remove m.m_committed e.d_uid;
    m.m_next_deliver <- m.m_next_deliver + 1;
    deliver_local m e
  done;
  g.g_leader <- m.m_idx;
  (* Re-propose every stashed submit not yet decided, reusing the dead
     leader's proposal when it reached us. *)
  let stashed = Hashtbl.fold (fun uid mi acc -> (uid, mi) :: acc) m.m_submits [] in
  List.iter
    (fun (uid, mi) ->
      Hashtbl.remove m.m_submits uid;
      if not (Uidset.mem m.m_seen uid) then begin
        let reuse =
          match Hashtbl.find_opt m.m_early uid with
          | Some props -> List.assoc_opt m.m_gid props
          | None -> None
        in
        propose t m mi ~reuse
      end)
    (List.sort compare stashed)

let monitor_leader t (m : 'a member) =
  let rec loop () =
    Engine.sleep t.cfg.leader_check_ns;
    let g = t.groups.(m.m_gid) in
    let lead = g.g_members.(g.g_leader) in
    if not (Fabric.is_alive lead.m_node) then begin
      (* Lowest-index live member takes over. *)
      let next = ref None in
      Array.iter
        (fun (c : 'a member) ->
          if !next = None && Fabric.is_alive c.m_node then next := Some c.m_idx)
        g.g_members;
      match !next with
      | Some idx when idx = m.m_idx && g.g_leader <> idx -> takeover t m
      | Some _ | None -> ()
    end;
    loop ()
  in
  loop ()

let log_retained t ~gid ~idx = log_retained_of t.groups.(gid).g_members.(idx)

let seen_bytes t ~gid ~idx =
  Obj.reachable_words (Obj.repr t.groups.(gid).g_members.(idx).m_seen)
  * (Sys.word_size / 8)

(* {1 Construction and client API} *)

let create ?(config = default_config) ?tracing fab ~size_of ~groups =
  if Array.length groups = 0 then invalid_arg "Ramcast.create: no groups";
  let reg = Fabric.metrics fab in
  let deliveries = Heron_obs.Metrics.counter reg "mcast.deliveries" in
  let mk_group gid nodes =
    if Array.length nodes = 0 || Array.length nodes mod 2 = 0 then
      invalid_arg "Ramcast.create: groups must have odd, non-zero size";
    let mk_member idx node =
      {
        m_gid = gid;
        m_idx = idx;
        m_node = node;
        m_inbox = Mailbox.create ();
        m_deliveries = deliveries;
        m_deliver = ignore;
        m_applied = None;
        m_applied_len = 0;
        m_clock = 0;
        m_pending = Hashtbl.create 64;
        m_early = Hashtbl.create 64;
        m_submits = Hashtbl.create 64;
        m_commits = Queue.create ();
        m_commit_of = Hashtbl.create 64;
        m_seen = Uidset.create ();
        m_log = [||];
        m_committed = Hashtbl.create 256;
        m_log_len = 0;
        m_log_start = 0;
        m_compacted_tmp = Tstamp.zero;
        m_next_deliver = 0;
        m_delivered = 0;
        m_reports = Array.make (Array.length nodes) 0;
      }
    in
    { g_gid = gid; g_members = Array.mapi mk_member nodes; g_leader = 0 }
  in
  {
    fab;
    cfg = config;
    size_of;
    groups = Array.mapi mk_group groups;
    links = Hashtbl.create 64;
    trc = tracing;
    obs =
      {
        ob_submits = Heron_obs.Metrics.counter reg "mcast.submits";
        ob_rounds = Heron_obs.Metrics.counter reg "mcast.timestamp_rounds";
        ob_takeovers = Heron_obs.Metrics.counter reg "mcast.takeovers";
        ob_compacted = Heron_obs.Metrics.counter reg "mcast.compacted_entries";
        ob_rejoin_replayed = Heron_obs.Metrics.counter reg "mcast.rejoin_replayed";
        ob_rejoin_bytes = Heron_obs.Metrics.counter reg "mcast.rejoin_replay_bytes";
      };
    next_uid = 1;
  }

let set_deliver ?applied t ~gid ~idx cb =
  let m = t.groups.(gid).g_members.(idx) in
  m.m_deliver <- cb;
  m.m_applied <- applied

let spawn_member_loops t (m : 'a member) =
  Fabric.spawn_on m.m_node (fun () ->
      let rec loop () =
        let ctrl = Mailbox.recv m.m_inbox in
        handle_ctrl t m ctrl;
        loop ()
      in
      loop ());
  Fabric.spawn_on m.m_node (fun () -> monitor_leader t m)

let restart_member ?applied t ~gid ~idx ~deliver =
  let g = t.groups.(gid) in
  let m = g.g_members.(idx) in
  if not (Fabric.is_alive m.m_node) then
    invalid_arg "Ramcast.restart_member: node is not alive";
  if t.groups.(gid).g_leader = idx then
    invalid_arg "Ramcast.restart_member: cannot restart the current leader";
  (* A process restart: all protocol state is gone. *)
  Hashtbl.reset m.m_pending;
  Hashtbl.reset m.m_early;
  Hashtbl.reset m.m_submits;
  Queue.clear m.m_commits;
  Hashtbl.reset m.m_commit_of;
  Uidset.clear m.m_seen;
  Hashtbl.reset m.m_committed;
  m.m_log <- [||];
  m.m_log_len <- 0;
  m.m_log_start <- 0;
  m.m_compacted_tmp <- Tstamp.zero;
  m.m_next_deliver <- 0;
  m.m_delivered <- 0;
  m.m_clock <- 0;
  Array.fill m.m_reports 0 (Array.length m.m_reports) 0;
  (* Until this incarnation reports, it holds the cut where it is. *)
  Array.iter (fun (o : 'a member) -> o.m_reports.(idx) <- 0) g.g_members;
  (* Drain stale control traffic left from before the crash. *)
  let rec drain () =
    match Mailbox.try_recv m.m_inbox with Some _ -> drain () | None -> ()
  in
  drain ();
  m.m_deliver <- deliver;
  m.m_applied <- applied;
  (* Log suffix sync, as on leader takeover: entries replicated while
     this member was down are never re-sent, and a recovery state
     transfer only covers what its donor had applied — an entry past
     the donor's applied point but already in the leader's log would
     otherwise reach this member by neither path. Worse than a hole:
     if that entry is multi-partition, its coordination needs a
     majority of this group at it, which a rejoiner that can never
     obtain it cannot help form — recovery and coordination then wait
     on each other forever. Copy the leader's log (one event-loop
     turn, so the snapshot is consistent), re-deliver the committed
     prefix — the replica skips whatever its transfer covered — and
     ack the in-flight tail so the leader can commit it. *)
  let lead = g.g_members.(g.g_leader) in
  let retained = log_retained_of lead in
  m.m_log <- Array.sub lead.m_log 0 retained;
  m.m_log_start <- lead.m_log_start;
  m.m_compacted_tmp <- lead.m_compacted_tmp;
  m.m_log_len <- lead.m_log_len;
  (* The reclaimed prefix counts as delivered and applied: every
     dropped entry was applied at all live members before the cut, so
     the recovery state transfer (from any live donor) covers it. *)
  m.m_next_deliver <- m.m_log_start;
  m.m_applied_len <- m.m_log_start;
  (* Re-adopt the leader's dedup set wholesale, not just the retained
     suffix's uids: a stale duplicate Submit for a dropped uid must
     never be re-proposable here after a future takeover. The leader's
     set holds every uid of its log, so the copied suffix is covered. *)
  Uidset.copy ~src:lead.m_seen m.m_seen;
  (* An entry still in one of the leader's queued commits waits for
     acks: it is delivered on that commit's notice, like at any
     follower. Every other entry of the leader's log is committed. *)
  let replay_bytes = ref 0 in
  let in_flight = ref [] in
  for i = m.m_log_start to m.m_log_len - 1 do
    let e = log_get m i in
    replay_bytes := !replay_bytes + entry_bytes t e;
    m.m_clock <- max m.m_clock e.d_tmp.Tstamp.clock;
    match Hashtbl.find_opt lead.m_commit_of e.d_uid with
    | None -> Hashtbl.replace m.m_committed e.d_uid ()
    | Some c -> if not (List.memq c !in_flight) then in_flight := c :: !in_flight
  done;
  Heron_obs.Metrics.add t.obs.ob_rejoin_replayed retained;
  Heron_obs.Metrics.add t.obs.ob_rejoin_bytes !replay_bytes;
  drain_follower m;
  (* One ack per in-flight commit, as for a log write. *)
  List.iter
    (fun c ->
      post_ctrl t ~src:m.m_node ~dst:lead ~bytes:t.cfg.ack_bytes
        (ack m ~uid:(List.hd c.cm_entries).d_uid))
    (List.rev !in_flight);
  spawn_member_loops t m

let start t =
  Array.iter
    (fun g -> Array.iter (fun (m : 'a member) -> spawn_member_loops t m) g.g_members)
    t.groups

let normalize_dst dst =
  match List.sort_uniq compare dst with
  | [] -> invalid_arg "Ramcast.multicast: empty destination"
  | l -> l

let multicast ?(slots = 1) t ~from ~dst payload =
  if slots < 1 then invalid_arg "Ramcast.multicast: slots must be positive";
  let dst = normalize_dst dst in
  Heron_obs.Metrics.incr t.obs.ob_submits;
  let uid = t.next_uid in
  (* Reserve a contiguous uid range so a batched payload can expand into
     [slots] distinct per-request timestamps (base uid + slot index) at
     delivery without colliding with any later entry's uid. *)
  t.next_uid <- uid + slots;
  let mi =
    { mi_uid = uid; mi_dst = dst; mi_payload = payload; mi_size = t.size_of payload }
  in
  let bytes = mi.mi_size + t.cfg.submit_hdr_bytes in
  let submit gid =
    let rec attempt () =
      let lead = current_leader t gid in
      match send_ctrl t ~src:from ~dst:lead ~bytes (Submit mi) with
      | () -> ()
      | exception Qp.Rdma_exception _ ->
          Engine.sleep t.cfg.resubmit_delay_ns;
          attempt ()
    in
    attempt ();
    Array.iter
      (fun (f : 'a member) ->
        if f.m_idx <> t.groups.(gid).g_leader then
          post_ctrl t ~src:from ~dst:f ~bytes (Submit mi))
      t.groups.(gid).g_members
  in
  List.iter submit dst;
  uid
