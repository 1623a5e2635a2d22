open Heron_sim

type span = {
  rs_trace : int;
  rs_id : int;
  rs_parent : int;
  rs_stage : string;
  rs_start : Time_ns.t;
  rs_end : Time_ns.t;
  rs_attrs : (string * string) list;
}

type tree = {
  tr_trace : int;
  tr_root : span;
  tr_spans : span list;
  mutable tr_after : span list;
}

let duration tree = tree.tr_root.rs_end - tree.tr_root.rs_start

(* ---------- critical-path analysis (pure) ---------- *)

type node = { n_span : span; n_children : node list }

let cmp_child a b =
  (* (start asc, end desc, stage, id): a long span sorts before the
     shorter spans it covers, which is what containment nesting wants. *)
  let c = compare a.rs_start b.rs_start in
  if c <> 0 then c
  else
    let c = compare b.rs_end a.rs_end in
    if c <> 0 then c
    else
      let c = compare a.rs_stage b.rs_stage in
      if c <> 0 then c else compare a.rs_id b.rs_id

(* Re-nest siblings: a sibling whose interval lies inside an earlier
   (sorted) sibling's interval becomes its child. This is how spans
   parented directly to the root by components that never see
   intermediate span ids (the multicast layer) end up inside the stage
   span that covers them. One level of sibling nesting per tree level. *)
let nest_siblings nodes =
  let nodes = List.sort (fun a b -> cmp_child a.n_span b.n_span) nodes in
  (* Mutable scaffolding: children attach as their container pops. *)
  let result = ref [] in
  let stack : (node * node list ref) list ref = ref [] in
  let contains outer inner =
    outer.n_span.rs_start <= inner.n_span.rs_start
    && inner.n_span.rs_end <= outer.n_span.rs_end
  in
  let finalize (n, extra) =
    if !extra = [] then n
    else
      let kids =
        List.sort (fun a b -> cmp_child a.n_span b.n_span)
          (n.n_children @ List.rev !extra)
      in
      { n with n_children = kids }
  in
  let pop () =
    match !stack with
    | [] -> assert false
    | top :: rest ->
        stack := rest;
        let n = finalize top in
        (match rest with
        | (_, kids) :: _ -> kids := n :: !kids
        | [] -> result := n :: !result)
  in
  List.iter
    (fun n ->
      while
        match !stack with
        | (outer, _) :: _ -> not (contains outer n)
        | [] -> false
      do
        pop ()
      done;
      stack := (n, ref []) :: !stack)
    nodes;
  while !stack <> [] do
    pop ()
  done;
  List.rev !result

let nest spans =
  let roots = List.filter (fun s -> s.rs_parent = 0) spans in
  let root =
    match List.sort (fun a b -> compare (a.rs_start, a.rs_id) (b.rs_start, b.rs_id)) roots with
    | r :: _ -> Some r
    | [] -> None
  in
  match root with
  | None -> None
  | Some root ->
      let ids = Hashtbl.create 32 in
      List.iter (fun s -> Hashtbl.replace ids s.rs_id ()) spans;
      let by_parent : (int, span list) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun s ->
          if s.rs_id <> root.rs_id then begin
            (* A missing parent (dropped span, truncated dump, extra
               parentless root) falls back to the root. *)
            let p =
              if s.rs_parent <> 0 && s.rs_parent <> s.rs_id
                 && Hashtbl.mem ids s.rs_parent
              then s.rs_parent
              else root.rs_id
            in
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_parent p) in
            Hashtbl.replace by_parent p (s :: prev)
          end)
        spans;
      (* Cycles among malformed parent links could otherwise loop: each
         span is expanded at most once. *)
      let seen = Hashtbl.create 32 in
      let rec build s =
        let kids =
          if Hashtbl.mem seen s.rs_id then []
          else begin
            Hashtbl.replace seen s.rs_id ();
            Option.value ~default:[] (Hashtbl.find_opt by_parent s.rs_id)
          end
        in
        let kids = List.map build (List.sort cmp_child kids) in
        { n_span = s; n_children = nest_siblings kids }
      in
      Some (build root)

type seg = { sg_span : span; sg_from : Time_ns.t; sg_until : Time_ns.t }

let critical_segments root =
  let segs = ref [] in
  (* Attribute [lo, hi) of [n]'s interval: walking backwards from [hi],
     the last-finishing child claims its (clipped) interval and recurses;
     gaps between children — and whatever is left at [lo] — belong to
     [n] itself. The emitted segments partition [lo, hi) exactly. *)
  let rec walk n lo hi =
    let kids =
      List.sort
        (fun a b ->
          let c = compare b.n_span.rs_end a.n_span.rs_end in
          if c <> 0 then c
          else
            let c = compare b.n_span.rs_start a.n_span.rs_start in
            if c <> 0 then c else compare a.n_span.rs_id b.n_span.rs_id)
        n.n_children
    in
    let cursor = ref hi in
    List.iter
      (fun c ->
        let ce = min c.n_span.rs_end !cursor in
        let cs = max c.n_span.rs_start lo in
        if cs < ce then begin
          if ce < !cursor then
            segs := { sg_span = n.n_span; sg_from = ce; sg_until = !cursor } :: !segs;
          walk c cs ce;
          cursor := cs
        end)
      kids;
    if lo < !cursor then
      segs := { sg_span = n.n_span; sg_from = lo; sg_until = !cursor } :: !segs
  in
  walk root root.n_span.rs_start root.n_span.rs_end;
  (* Pushed in decreasing-time order, so the list is chronological. *)
  !segs

let breakdown segs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sg ->
      let stage = sg.sg_span.rs_stage in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl stage) in
      Hashtbl.replace tbl stage (prev + (sg.sg_until - sg.sg_from)))
    segs;
  Hashtbl.fold (fun stage ns acc -> (stage, ns) :: acc) tbl []
  |> List.sort (fun (sa, na) (sb, nb) ->
         let c = compare nb na in
         if c <> 0 then c else compare sa sb)

let trees_of_spans spans =
  let by_trace = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_trace s.rs_trace) in
      Hashtbl.replace by_trace s.rs_trace (s :: prev))
    spans;
  Hashtbl.fold
    (fun trace spans acc ->
      let spans = List.rev spans in
      let roots = List.filter (fun s -> s.rs_parent = 0) spans in
      match
        List.sort (fun a b -> compare (a.rs_start, a.rs_id) (b.rs_start, b.rs_id)) roots
      with
      | root :: _ ->
          { tr_trace = trace; tr_root = root; tr_spans = spans; tr_after = [] } :: acc
      | [] -> acc)
    by_trace []
  |> List.sort (fun a b ->
         let c = compare (duration b) (duration a) in
         if c <> 0 then c else compare a.tr_trace b.tr_trace)

let pp_ns ns = Format.asprintf "%a" Time_ns.pp ns

let render_tree tree =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "trace %d: %s end-to-end, %d spans\n" tree.tr_trace
       (pp_ns (duration tree))
       (List.length tree.tr_spans));
  (match nest tree.tr_spans with
  | None -> Buffer.add_string buf "  (no root span)\n"
  | Some root ->
      let segs = critical_segments root in
      let t0 = tree.tr_root.rs_start in
      List.iter
        (fun sg ->
          Buffer.add_string buf
            (Printf.sprintf "  +%-10s %-10s %s" (pp_ns (sg.sg_from - t0))
               (pp_ns (sg.sg_until - sg.sg_from))
               sg.sg_span.rs_stage);
          List.iter
            (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%s" k v))
            sg.sg_span.rs_attrs;
          Buffer.add_char buf '\n')
        segs;
      Buffer.add_string buf "  breakdown:";
      List.iter
        (fun (stage, ns) ->
          Buffer.add_string buf (Printf.sprintf " %s=%s" stage (pp_ns ns)))
        (breakdown segs);
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* ---------- collector ---------- *)

type pending = {
  p_root : int;
  p_start : Time_ns.t;
  p_attrs : (string * string) list;
  mutable p_spans : span list;  (* newest first *)
  mutable p_nspans : int;
}

type mstate = {
  m_reg : Metrics.t;
  m_e2e : Metrics.histogram;
  m_traces : Metrics.counter;
  m_late : Metrics.counter;
  m_dropped : Metrics.counter;
  m_stage : (string, Metrics.histogram) Hashtbl.t;
}

type t = {
  ring : tree option array;
  mutable ring_next : int;
  mutable n_finished : int;
  k_exemplars : int;
  mutable slowest : tree list;  (* slowest first, length <= k_exemplars *)
  max_spans : int;
  inflight : (int, pending) Hashtbl.t;
  retained : (int, tree) Hashtbl.t;  (* finished trees in ring or exemplars *)
  mutable next_id : int;
  mutable n_late : int;
  mutable n_dropped : int;
  mutable metrics : mstate option;
}

let create ?(ring = 512) ?(exemplars = 8) ?(max_spans = 256) () =
  if ring <= 0 then invalid_arg "Reqtrace.create: ring must be positive";
  if exemplars < 0 then invalid_arg "Reqtrace.create: exemplars must be >= 0";
  if max_spans <= 0 then invalid_arg "Reqtrace.create: max_spans must be positive";
  {
    ring = Array.make ring None;
    ring_next = 0;
    n_finished = 0;
    k_exemplars = exemplars;
    slowest = [];
    max_spans;
    inflight = Hashtbl.create 64;
    retained = Hashtbl.create 64;
    next_id = 1;
    n_late = 0;
    n_dropped = 0;
    metrics = None;
  }

let attach_metrics t reg =
  t.metrics <-
    Some
      {
        m_reg = reg;
        m_e2e = Metrics.histogram reg "req.e2e_ns";
        m_traces = Metrics.counter reg "req.traces";
        m_late = Metrics.counter reg "req.late_spans";
        m_dropped = Metrics.counter reg "req.dropped_spans";
        m_stage = Hashtbl.create 16;
      }

let stage_hist m stage =
  match Hashtbl.find_opt m.m_stage stage with
  | Some h -> h
  | None ->
      let h = Metrics.histogram m.m_reg ~labels:[ ("stage", stage) ] "req.stage_ns" in
      Hashtbl.replace m.m_stage stage h;
      h

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let start_trace t ?(attrs = []) ~now () =
  let trace = fresh_id t in
  let root = fresh_id t in
  Hashtbl.replace t.inflight trace
    { p_root = root; p_start = now; p_attrs = attrs; p_spans = []; p_nspans = 0 };
  (trace, root)

let note_late t =
  t.n_late <- t.n_late + 1;
  Option.iter (fun m -> Metrics.incr m.m_late) t.metrics

let note_dropped t =
  t.n_dropped <- t.n_dropped + 1;
  Option.iter (fun m -> Metrics.incr m.m_dropped) t.metrics

let add_span t ~trace ~parent ~stage ?(attrs = []) ~start stop =
  if stop < start then invalid_arg "Reqtrace.add_span: span ends before it starts";
  let mk id =
    {
      rs_trace = trace;
      rs_id = id;
      rs_parent = parent;
      rs_stage = stage;
      rs_start = start;
      rs_end = stop;
      rs_attrs = attrs;
    }
  in
  match Hashtbl.find_opt t.inflight trace with
  | None ->
      note_late t;
      (* After-reply: kept with the retained tree, outside it, and with
         no id, so later trace and span ids are the same as if it had
         been dropped. *)
      (match Hashtbl.find_opt t.retained trace with
      | None -> ()
      | Some tr ->
          if List.length tr.tr_spans + List.length tr.tr_after >= t.max_spans then
            note_dropped t
          else tr.tr_after <- mk 0 :: tr.tr_after);
      0
  | Some p ->
      if p.p_nspans >= t.max_spans then begin
        note_dropped t;
        0
      end
      else begin
        let id = fresh_id t in
        p.p_spans <- mk id :: p.p_spans;
        p.p_nspans <- p.p_nspans + 1;
        id
      end

let in_ring t tree =
  Array.exists (function Some x -> x == tree | None -> false) t.ring

(* A tree leaves [retained] once neither the ring nor the exemplars
   hold it. *)
let insert_exemplar t tree =
  if t.k_exemplars > 0 then begin
    let d = duration tree in
    let rec ins = function
      | [] -> [ tree ]
      | x :: rest ->
          if d > duration x then tree :: x :: rest else x :: ins rest
    in
    let l = ins t.slowest in
    if List.length l > t.k_exemplars then begin
      t.slowest <- List.filteri (fun i _ -> i < t.k_exemplars) l;
      let out = List.nth l t.k_exemplars in
      if out != tree && not (in_ring t out) then Hashtbl.remove t.retained out.tr_trace
    end
    else t.slowest <- l
  end

let finish t ~trace ~now =
  match Hashtbl.find_opt t.inflight trace with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.inflight trace;
      let root =
        {
          rs_trace = trace;
          rs_id = p.p_root;
          rs_parent = 0;
          rs_stage = "request";
          rs_start = p.p_start;
          rs_end = max p.p_start now;
          rs_attrs = p.p_attrs;
        }
      in
      let tree =
        { tr_trace = trace; tr_root = root; tr_spans = root :: List.rev p.p_spans; tr_after = [] }
      in
      (match t.ring.(t.ring_next) with
      | Some old when not (List.memq old t.slowest) -> Hashtbl.remove t.retained old.tr_trace
      | Some _ | None -> ());
      Hashtbl.replace t.retained trace tree;
      t.ring.(t.ring_next) <- Some tree;
      t.ring_next <- (t.ring_next + 1) mod Array.length t.ring;
      t.n_finished <- t.n_finished + 1;
      insert_exemplar t tree;
      Option.iter
        (fun m ->
          Metrics.incr m.m_traces;
          Metrics.observe m.m_e2e (duration tree);
          match nest tree.tr_spans with
          | None -> ()
          | Some node ->
              List.iter
                (fun (stage, ns) -> Metrics.observe (stage_hist m stage) ns)
                (breakdown (critical_segments node)))
        t.metrics

let discard t ~trace = Hashtbl.remove t.inflight trace

let completed t =
  let cap = Array.length t.ring in
  let n = min t.n_finished cap in
  let first = if t.n_finished <= cap then 0 else t.ring_next in
  List.init n (fun i ->
      match t.ring.((first + i) mod cap) with Some tr -> tr | None -> assert false)

let exemplars t = t.slowest

let export_trees t =
  let seen = Hashtbl.create 64 in
  let keep tr =
    if Hashtbl.mem seen tr.tr_trace then false
    else begin
      Hashtbl.replace seen tr.tr_trace ();
      true
    end
  in
  List.filter keep (completed t @ t.slowest)
  |> List.sort (fun a b -> compare a.tr_trace b.tr_trace)

let finished t = t.n_finished
let late_spans t = t.n_late
let dropped_spans t = t.n_dropped
