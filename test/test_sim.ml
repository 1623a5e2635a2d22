(* Tests for heron_sim: the discrete-event engine and its fiber
   synchronisation primitives. *)

open Heron_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Prio_queue} *)

let test_pq_order () =
  let h = Prio_queue.create ~cmp:compare in
  List.iter (Prio_queue.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Prio_queue.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_pq_empty () =
  let h = Prio_queue.create ~cmp:compare in
  check_bool "is_empty" true (Prio_queue.is_empty h);
  check_bool "pop" true (Prio_queue.pop h = None);
  check_bool "peek" true (Prio_queue.peek h = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Prio_queue.pop_exn: empty heap")
    (fun () -> ignore (Prio_queue.pop_exn h))

let test_pq_peek_does_not_remove () =
  let h = Prio_queue.create ~cmp:compare in
  Prio_queue.push h 2;
  Prio_queue.push h 1;
  check_bool "peek min" true (Prio_queue.peek h = Some 1);
  check_int "length" 2 (Prio_queue.length h)

let pq_sorted_prop =
  QCheck.Test.make ~name:"prio_queue drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Prio_queue.create ~cmp:compare in
      List.iter (Prio_queue.push h) xs;
      let rec drain acc =
        match Prio_queue.pop h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* {1 Time_ns} *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "s" 1_000_000_000 (Time_ns.s 1);
  check_int "of_us_f" 1_500 (Time_ns.of_us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_us_f" 2.5 (Time_ns.to_us_f 2_500);
  Alcotest.(check string) "pp us" "2.50us" (Format.asprintf "%a" Time_ns.pp 2_500);
  Alcotest.(check string) "pp ns" "999ns" (Format.asprintf "%a" Time_ns.pp 999)

(* {1 Engine} *)

let test_engine_sleep_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep (Time_ns.us 3);
      log := (Engine.self_now (), "c") :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep (Time_ns.us 1);
      log := (Engine.self_now (), "a") :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep (Time_ns.us 2);
      log := (Engine.self_now (), "b") :: !log);
  Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "events fire in time order"
    [ (1_000, "a"); (2_000, "b"); (3_000, "c") ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  (* Events scheduled for the same instant run in scheduling order. *)
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule eng (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.sleep (Time_ns.ms 1);
        incr hits
      done);
  Engine.run_until eng (Time_ns.ms 5);
  check_int "5 iterations by 5ms" 5 !hits;
  check_int "clock at horizon" (Time_ns.ms 5) (Engine.now eng);
  Engine.run eng;
  check_int "all iterations after run" 10 !hits

let test_engine_run_until_behind () =
  (* A horizon behind the clock runs nothing and leaves the clock, and
     so the times of later schedules, where they were. *)
  let eng = Engine.create () in
  let log = ref [] in
  Engine.run_until eng 100;
  Engine.schedule ~delay:10 eng (fun () -> log := Engine.now eng :: !log);
  Engine.schedule eng (fun () -> log := Engine.now eng :: !log);
  Engine.run_until eng 50;
  check_int "clock unchanged" 100 (Engine.now eng);
  check_int "nothing ran" 0 (List.length !log);
  check_int "both still queued" 2 (Engine.pending_events eng);
  Engine.run eng;
  Alcotest.(check (list int)) "each runs at its own time" [ 100; 110 ] (List.rev !log)

(* The engine's ordering contract written the plain way: one Prio_queue
   of events ordered by (at, seq), seq counting schedules; [run_until]
   with a horizon behind the clock does nothing. *)
module Ref_engine = struct
  type event = { at : int; seq : int; run : unit -> unit }
  type t = { mutable clock : int; mutable seq : int; queue : event Prio_queue.t }

  let create () =
    {
      clock = 0;
      seq = 0;
      queue =
        Prio_queue.create ~cmp:(fun a b ->
            match compare a.at b.at with 0 -> compare a.seq b.seq | c -> c);
    }

  let schedule ~delay t run =
    t.seq <- t.seq + 1;
    Prio_queue.push t.queue { at = t.clock + max 0 delay; seq = t.seq; run }

  let step t =
    match Prio_queue.pop t.queue with
    | None -> false
    | Some ev ->
        t.clock <- ev.at;
        ev.run ();
        true

  let now t = t.clock
  let pending_events t = Prio_queue.length t.queue
  let run t = while step t do () done

  let run_until t horizon =
    if horizon >= t.clock then begin
      let rec loop () =
        match Prio_queue.peek t.queue with
        | Some ev when ev.at <= horizon ->
            ignore (step t);
            loop ()
        | Some _ | None -> ()
      in
      loop ();
      t.clock <- horizon
    end

  let pending_times t =
    List.sort compare (List.map (fun ev -> ev.at) (Prio_queue.to_list t.queue))
end

(* A callback that logs itself and schedules its children, each after
   its own delay. *)
type callback = { label : int; children : (int * callback) list }

type action =
  | Schedule of int * callback  (* from outside [run] *)
  | Until_event of int  (* run_until the time of the i-th pending event *)
  | Until_behind of int  (* run_until [d] before the clock *)
  | Until_ahead of int  (* run_until [d] past the clock *)

(* Delays: negative, zero, one value that recurs, and spread values. *)
let gen_delay =
  QCheck.Gen.(
    frequency
      [ (1, int_range (-3) (-1)); (3, return 0); (2, return 5); (2, int_range 1 20) ])

let gen_script =
  let open QCheck.Gen in
  let label = ref 0 in
  let tree =
    fix
      (fun self depth ->
        let* children =
          if depth = 0 then return []
          else list_size (int_bound 3) (pair gen_delay (self (depth - 1)))
        in
        incr label;
        return { label = !label; children })
      3
  in
  list_size (int_range 1 12)
    (frequency
       [
         (4, map2 (fun d cb -> Schedule (d, cb)) gen_delay tree);
         (2, map (fun i -> Until_event i) (int_bound 8));
         (1, map (fun d -> Until_behind d) (int_range 1 10));
         (1, map (fun d -> Until_ahead d) (int_range 0 10));
       ])

let print_script script =
  let rec cb { label; children } =
    Printf.sprintf "%d[%s]" label
      (String.concat " " (List.map (fun (d, c) -> Printf.sprintf "+%d:%s" d (cb c)) children))
  in
  String.concat "; "
    (List.map
       (function
         | Schedule (d, c) -> Printf.sprintf "schedule +%d %s" d (cb c)
         | Until_event i -> Printf.sprintf "until event %d" i
         | Until_behind d -> Printf.sprintf "until now-%d" d
         | Until_ahead d -> Printf.sprintf "until now+%d" d)
       script)

(* Run [script] then [run] on the engine and on the reference side by
   side; each logs (now, label, pending events) per callback, and
   (now, -1, pending events) after every step of the script. *)
let engine_matches_reference script =
  let eng = Engine.create () and reff = Ref_engine.create () in
  let log_e = ref [] and log_r = ref [] in
  let rec fire_e cb () =
    log_e := (Engine.now eng, cb.label, Engine.pending_events eng) :: !log_e;
    List.iter (fun (delay, c) -> Engine.schedule ~delay eng (fire_e c)) cb.children
  in
  let rec fire_r cb () =
    log_r := (Ref_engine.now reff, cb.label, Ref_engine.pending_events reff) :: !log_r;
    List.iter (fun (delay, c) -> Ref_engine.schedule ~delay reff (fire_r c)) cb.children
  in
  let mark () =
    log_e := (Engine.now eng, -1, Engine.pending_events eng) :: !log_e;
    log_r := (Ref_engine.now reff, -1, Ref_engine.pending_events reff) :: !log_r
  in
  let until h =
    Engine.run_until eng h;
    Ref_engine.run_until reff h
  in
  List.iter
    (fun action ->
      (match action with
      | Schedule (delay, cb) ->
          Engine.schedule ~delay eng (fire_e cb);
          Ref_engine.schedule ~delay reff (fire_r cb)
      | Until_event i -> (
          match Ref_engine.pending_times reff with
          | [] -> until (Ref_engine.now reff)
          | times -> until (List.nth times (i mod List.length times)))
      | Until_behind d -> until (Ref_engine.now reff - d)
      | Until_ahead d -> until (Ref_engine.now reff + d));
      mark ())
    script;
  Engine.run eng;
  Ref_engine.run reff;
  mark ();
  !log_e = !log_r

let engine_order_prop =
  QCheck.Test.make ~name:"engine runs events in reference (at, seq) order" ~count:500
    (QCheck.make ~print:print_script gen_script)
    engine_matches_reference

let test_engine_cancellation () =
  let eng = Engine.create () in
  let tok = Engine.new_token eng in
  let steps = ref 0 in
  let cleanup = ref false in
  Engine.spawn ~token:tok eng (fun () ->
      Fun.protect
        ~finally:(fun () -> cleanup := true)
        (fun () ->
          for _ = 1 to 100 do
            Engine.sleep (Time_ns.us 10);
            incr steps
          done));
  Engine.spawn eng (fun () ->
      Engine.sleep (Time_ns.us 35);
      Engine.cancel tok);
  Engine.run eng;
  check_int "stopped after cancel" 3 !steps;
  check_bool "finaliser ran on cancellation" true !cleanup;
  check_int "no live fibers" 0 (Engine.live_fibers eng)

let test_engine_cancel_before_start () =
  let eng = Engine.create () in
  let tok = Engine.new_token eng in
  Engine.cancel tok;
  let ran = ref false in
  Engine.spawn ~token:tok eng (fun () -> ran := true);
  Engine.run eng;
  check_bool "cancelled fiber never starts" false !ran;
  check_int "no live fibers" 0 (Engine.live_fibers eng)

let test_engine_determinism () =
  let trace seed =
    let eng = Engine.create ~seed () in
    let log = ref [] in
    for i = 1 to 20 do
      Engine.spawn eng (fun () ->
          let d = Random.State.int (Engine.rng eng) 1000 in
          Engine.sleep d;
          log := (i, Engine.self_now ()) :: !log)
    done;
    Engine.run eng;
    !log
  in
  check_bool "same seed, same trace" true (trace 7 = trace 7);
  check_bool "different seed, different trace" true (trace 7 <> trace 8)

let test_engine_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run eng)

(* {1 Ivar} *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Ivar.fill iv 41;
  Engine.spawn eng (fun () -> got := Ivar.read iv);
  Engine.run eng;
  check_int "read full ivar" 41 !got

let test_ivar_blocks_until_filled () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got_at = ref (-1) in
  Engine.spawn eng (fun () ->
      ignore (Ivar.read iv);
      got_at := Engine.self_now ());
  Engine.spawn eng (fun () ->
      Engine.sleep (Time_ns.us 7);
      Ivar.fill iv ());
  Engine.run eng;
  check_int "reader woken at fill time" (Time_ns.us 7) !got_at

let test_ivar_multiple_readers () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () -> sum := !sum + Ivar.read iv)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 5;
      Ivar.fill iv 10);
  Engine.run eng;
  check_int "all readers woken" 30 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill on full" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill on full" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill iv 3);
  check_bool "value unchanged" true (Ivar.peek iv = Some 1)

(* {1 Mailbox} *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Mailbox.send mb "x";
      Engine.sleep 2;
      Mailbox.send mb "y";
      Mailbox.send mb "z");
  Engine.run eng;
  Alcotest.(check (list string)) "fifo order" [ "x"; "y"; "z" ] (List.rev !got)

let test_mailbox_competing_receivers () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  for i = 1 to 2 do
    Engine.spawn eng (fun () ->
        let v = Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 1;
      Mailbox.send mb "first";
      Mailbox.send mb "second");
  Engine.run eng;
  check_int "both received one" 2 (List.length !got);
  check_bool "no message lost" true
    (List.sort compare (List.map snd !got) = [ "first"; "second" ])

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  check_bool "empty" true (Mailbox.try_recv mb = None);
  Mailbox.send mb 5;
  check_int "length" 1 (Mailbox.length mb);
  check_bool "nonempty" true (Mailbox.try_recv mb = Some 5);
  check_bool "drained" true (Mailbox.is_empty mb)

(* {1 Signal} *)

let test_signal_broadcast_wakes_all () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let woken = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Signal.wait s;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 10;
      check_int "four waiters parked" 4 (Signal.waiters s);
      Signal.broadcast s);
  Engine.run eng;
  check_int "all woken" 4 !woken

let test_signal_wait_until () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let counter = ref 0 in
  let done_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Signal.wait_until s (fun () -> !counter >= 3);
      done_at := Engine.self_now ());
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Engine.sleep (Time_ns.us 1);
        incr counter;
        Signal.broadcast s
      done);
  Engine.run eng;
  check_int "woken at third broadcast" (Time_ns.us 3) !done_at

let test_signal_wait_until_already_true () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let ran = ref false in
  Engine.spawn eng (fun () ->
      Signal.wait_until s (fun () -> true);
      ran := true);
  Engine.run eng;
  check_bool "no broadcast needed" true !ran

(* {1 Qc.int_range} *)

let test_qc_int_range_shrinks_in_range () =
  List.iter
    (fun (lo, hi) ->
      let shrink = Option.get (Qc.int_range lo hi).QCheck.shrink in
      for x = lo to hi do
        shrink x (fun c ->
            if c < lo || c > hi || c >= x then
              Alcotest.failf "int_range %d %d shrinks %d to %d" lo hi x c)
      done)
    [ (1, 4); (0, 10); (16, 30); (-5, 5); (2_000, 2_300) ]

let test_qc_int_range_counterexample () =
  (* Fails everywhere: the shrinker must stop at the range's low end,
     where QCheck.int_range would go on to 0. *)
  let cell = QCheck.Test.make_cell ~count:20 (Qc.int_range 1 4) (fun x -> x > 10) in
  match
    QCheck.TestResult.get_state
      (QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell)
  with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
      check_int "minimal counterexample" 1 c.QCheck.TestResult.instance
  | _ -> Alcotest.fail "property should fail"

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "sim.prio_queue",
      [
        tc "drains sorted" test_pq_order;
        tc "empty heap" test_pq_empty;
        tc "peek does not remove" test_pq_peek_does_not_remove;
        Qc.test pq_sorted_prop;
      ] );
    ("sim.time", [ tc "unit conversions" test_time_units ]);
    ( "sim.engine",
      [
        tc "sleep order" test_engine_sleep_order;
        tc "same-time fifo" test_engine_same_time_fifo;
        tc "run_until horizon" test_engine_run_until;
        tc "run_until behind the clock" test_engine_run_until_behind;
        Qc.test engine_order_prop;
        tc "cancellation" test_engine_cancellation;
        tc "cancel before start" test_engine_cancel_before_start;
        tc "determinism" test_engine_determinism;
        tc "exception propagates" test_engine_exception_propagates;
      ] );
    ( "sim.ivar",
      [
        tc "fill then read" test_ivar_fill_then_read;
        tc "blocks until filled" test_ivar_blocks_until_filled;
        tc "multiple readers" test_ivar_multiple_readers;
        tc "double fill rejected" test_ivar_double_fill;
      ] );
    ( "sim.mailbox",
      [
        tc "fifo" test_mailbox_fifo;
        tc "competing receivers" test_mailbox_competing_receivers;
        tc "try_recv" test_mailbox_try_recv;
      ] );
    ( "qc",
      [
        tc "int_range shrinks stay in range" test_qc_int_range_shrinks_in_range;
        tc "int_range counterexample in range" test_qc_int_range_counterexample;
      ] );
    ( "sim.signal",
      [
        tc "broadcast wakes all" test_signal_broadcast_wakes_all;
        tc "wait_until" test_signal_wait_until;
        tc "wait_until already true" test_signal_wait_until_already_true;
      ] );
  ]

let () = Alcotest.run "heron_sim" suite
