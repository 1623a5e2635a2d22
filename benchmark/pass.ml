(* One pass of a workload: build a deployment, warm it up, measure a
   window of virtual time, drain, and check the outputs. Everything here
   goes through the public API (System, Engine, Fabric, Replica's
   inspection functions and the metric registry). *)

open Heron_sim
open Heron_stats
open Heron_rdma
open Heron_core
module Metrics = Heron_obs.Metrics

(* Requests are due at submit (closed loop) or at their scheduled
   arrival (open loop); a request belongs to the window its due time
   falls in. *)
type recorder = {
  mutable w_start : Time_ns.t;
  mutable w_end : Time_ns.t;
  mutable stop : bool;  (* closed-loop clients and generators stop issuing *)
  lat : Sample_set.t;
  write_lat : Sample_set.t;
  multi_lat : Sample_set.t;
  mutable attempted : int;
  mutable answered : int;
  mutable invalid : int;
  mutable completed : int;  (* valid replies that arrived inside the window *)
  per_ms : int array;  (* completions per 1 ms of the window *)
  mutable gap_from : Time_ns.t;
  mutable gap_until : Time_ns.t;
  mutable last_done : Time_ns.t;
  mutable max_gap : Time_ns.t;
      (* longest interval without a completion in [gap_from, gap_until) *)
}

let recorder ~measure =
  {
    w_start = max_int;
    w_end = max_int;
    stop = false;
    lat = Sample_set.create ();
    write_lat = Sample_set.create ();
    multi_lat = Sample_set.create ();
    attempted = 0;
    answered = 0;
    invalid = 0;
    completed = 0;
    per_ms = Array.make (max 1 (measure / Time_ns.ms 1)) 0;
    gap_from = max_int;
    gap_until = max_int;
    last_done = 0;
    max_gap = 0;
  }

let in_window rc t = t >= rc.w_start && t < rc.w_end
let failed rc = rc.attempted - rc.answered + rc.invalid

let attempt rc ~due = if in_window rc due then rc.attempted <- rc.attempted + 1

let complete rc ~due ~ok ~write ~multi =
  let now = Engine.self_now () in
  if in_window rc due then begin
    rc.answered <- rc.answered + 1;
    if ok then begin
      Sample_set.add rc.lat (now - due);
      if write then Sample_set.add rc.write_lat (now - due);
      if multi then Sample_set.add rc.multi_lat (now - due)
    end
    else rc.invalid <- rc.invalid + 1
  end;
  if ok && in_window rc now then begin
    rc.completed <- rc.completed + 1;
    let b = (now - rc.w_start) / Time_ns.ms 1 in
    if b < Array.length rc.per_ms then rc.per_ms.(b) <- rc.per_ms.(b) + 1
  end;
  if ok && now >= rc.gap_from then begin
    let from = max rc.last_done rc.gap_from in
    rc.max_gap <- max rc.max_gap (min now rc.gap_until - from);
    rc.last_done <- now
  end

type check = string * (unit, string) result

type outcome = {
  setup_s : float;  (* CPU: System.create to the end of warmup *)
  run_cpu_s : float;  (* CPU: Engine.run_until over the measure window *)
  live_mb : float;  (* live heap the pass added, at the end of the window *)
  measure_ns : Time_ns.t;
  rc : recorder;
  window : Metrics.snapshot;  (* registry delta over the measure window *)
  final : Metrics.snapshot;  (* registry after the drain *)
  pending_events : int;
  live_fibers : int;
  log_retained_max : int;  (* multicast log entries held by the fullest member *)
  app_calls : int;  (* execute callbacks run in the window (traced pass only) *)
  app_wall_ns : int;  (* wall time inside them *)
  checks : check list;
  report : (string * float * string) list;  (* workload-only figures *)
}

(* What a workload plugs into a pass. [drive] runs before warmup: it
   spawns the load and any control fiber, and returns the hook the pass
   calls after the drain, which may run the engine further and returns
   the workload's own checks and report lines. *)
type ('req, 'resp) spec = {
  partitions : int;
  features : Deploy.features;
  app : ('req, 'resp) App.t;
  warmup : Time_ns.t;
  measure : Time_ns.t;
  drive :
    ('req, 'resp) System.t ->
    recorder ->
    Metrics.t ->
    unit ->
    check list * (string * float * string) list;
}

let drain = Time_ns.ms 20

let replicas_agree sys =
  let image r =
    let st = Replica.store r in
    List.sort_uniq Oid.compare
      (Versioned_store.registered_oids st @ Versioned_store.local_oids st)
    |> List.map (fun oid -> (oid, fst (Versioned_store.get st oid)))
  in
  let diverged = ref [] in
  Array.iteri
    (fun part row ->
      match List.filter (fun r -> Fabric.is_alive (Replica.node r)) (Array.to_list row) with
      | [] -> ()
      | r0 :: rest ->
          let i0 = image r0 in
          List.iter
            (fun r ->
              if image r <> i0 then
                diverged :=
                  Printf.sprintf "p%d: r%d differs from r%d" part (Replica.idx r)
                    (Replica.idx r0)
                  :: !diverged)
            rest)
    (System.replicas sys);
  match !diverged with [] -> Ok () | ds -> Error (String.concat "; " (List.rev ds))

let invariants sys =
  let errs =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc r ->
            match Replica.check_invariants r with
            | Ok () -> acc
            | Error e ->
                Printf.sprintf "p%d-r%d: %s" (Replica.part r) (Replica.idx r) e :: acc)
          acc row)
      [] (System.replicas sys)
  in
  match errs with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

(* Wall time inside the application's execute callback: the traced
   pass wraps it, the untraced pass runs the app as is. The clock stops
   while the callback is in the context's functions, which may charge
   virtual time and so let other fibers run. *)
let timed_app app =
  let calls = ref 0 and wall = ref 0L in
  let execute ctx req =
    let since = ref (Monotonic_clock.now ()) in
    let stop () = wall := Int64.add !wall (Int64.sub (Monotonic_clock.now ()) !since) in
    let outside f x =
      stop ();
      Fun.protect ~finally:(fun () -> since := Monotonic_clock.now ()) (fun () -> f x)
    in
    let ctx =
      {
        ctx with
        App.ctx_read = outside ctx.App.ctx_read;
        ctx_read_opt = outside ctx.App.ctx_read_opt;
        ctx_charge = outside ctx.App.ctx_charge;
      }
    in
    incr calls;
    Fun.protect ~finally:stop (fun () -> app.App.execute ctx req)
  in
  ({ app with App.execute }, calls, wall)

let log_retained_max sys =
  let mc = System.multicast sys in
  let worst = ref 0 in
  Array.iteri
    (fun gid row ->
      Array.iteri
        (fun idx _ ->
          worst := max !worst (Heron_multicast.Ramcast.log_retained mc ~gid ~idx))
        row)
    (System.replicas sys);
  !worst

(* Live major-heap words after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let run ~seed ~traced spec =
  let live0 = live_words () in
  let reg = Metrics.create () in
  let reqtrace =
    if traced then begin
      let col = Heron_obs.Reqtrace.create () in
      Heron_obs.Reqtrace.attach_metrics col reg;
      Some col
    end
    else None
  in
  let t0 = Sys.time () in
  let eng = Engine.create ~seed () in
  let cfg =
    Deploy.config ~partitions:spec.partitions ~features:spec.features ~metrics:reg ~reqtrace
  in
  let app, app_calls, app_wall =
    if traced then timed_app spec.app else (spec.app, ref 0, ref 0L)
  in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  let rc = recorder ~measure:spec.measure in
  let after_drain = spec.drive sys rc reg in
  Engine.run_until eng spec.warmup;
  let setup_s = Sys.time () -. t0 in
  rc.w_start <- spec.warmup;
  rc.w_end <- spec.warmup + spec.measure;
  let before = Metrics.snapshot reg in
  let calls0 = !app_calls and wall0 = !app_wall in
  let t1 = Sys.time () in
  Engine.run_until eng rc.w_end;
  let run_cpu_s = Sys.time () -. t1 in
  let app_calls = !app_calls - calls0 in
  let app_wall_ns = Int64.(to_int (sub !app_wall wall0)) in
  let window = Metrics.diff ~before ~after:(Metrics.snapshot reg) in
  let live_mb = float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. 1e6 in
  rc.stop <- true;
  Engine.run_until eng (rc.w_end + drain);
  let own_checks, report = after_drain () in
  let checks =
    [
      ( "no_failed_requests",
        if failed rc = 0 then Ok ()
        else Error (Printf.sprintf "%d of %d requests failed" (failed rc) rc.attempted) );
      ("replicas_agree", replicas_agree sys);
      ("replica_invariants", invariants sys);
    ]
    @ own_checks
  in
  {
    setup_s;
    run_cpu_s;
    live_mb;
    measure_ns = spec.measure;
    rc;
    window;
    final = Metrics.snapshot reg;
    pending_events = Engine.pending_events eng;
    live_fibers = Engine.live_fibers eng;
    log_retained_max = log_retained_max sys;
    app_calls;
    app_wall_ns;
    checks;
    report;
  }

(* {1 Load generators} *)

(* Closed loop: each client, on its own node, waits for its reply
   before sending the next request. *)
let closed_loop sys rc ~seed ~clients ~gen ~is_write ~valid =
  for c = 0 to clients - 1 do
    let rng = Random.State.make [| seed; c; 0xC105ED |] in
    let node = System.new_client_node sys ~name:(Printf.sprintf "client-%d" c) in
    Fabric.spawn_on node (fun () ->
        let rec loop () =
          if not rc.stop then begin
            let req = gen ~client:c rng in
            let due = Engine.self_now () in
            attempt rc ~due;
            let resps = System.submit sys ~from:node req in
            complete rc ~due ~ok:(valid req resps) ~write:(is_write req)
              ~multi:(List.length resps > 1);
            loop ()
          end
        in
        loop ())
  done

(* Open loop: one generator fiber draws Poisson arrivals at [rate_per_s]
   and hands each request, at its due instant, to a fresh fiber on the
   next client node in turn; [on_submit] and [on_reply] let the workload
   keep its own per-request books. *)
let open_loop sys rc ~seed ~rate_per_s ~nodes ~gen ~is_write ~valid ~on_submit ~on_reply =
  let rng = Random.State.make [| seed; 0x09E4 |] in
  let gen_node = Fabric.add_node (System.fabric sys) ~name:"generator" in
  let mean_ns = 1e9 /. float_of_int rate_per_s in
  Fabric.spawn_on gen_node (fun () ->
      let next = ref 0 in
      let rec loop due =
        if not rc.stop then begin
          Engine.sleep (due - Engine.self_now ());
          let req = gen rng in
          let node = nodes.(!next mod Array.length nodes) in
          incr next;
          on_submit req;
          attempt rc ~due;
          Fabric.spawn_on node (fun () ->
              let resps = System.submit sys ~from:node req in
              let ok = valid req resps in
              if ok then on_reply req;
              complete rc ~due ~ok ~write:(is_write req) ~multi:(List.length resps > 1));
          let gap = -.mean_ns *. log (1. -. Random.State.float rng 1.) in
          loop (due + max 1 (int_of_float gap))
        end
      in
      loop (Engine.self_now ()))
