(* Lagger recovery: watch Heron's state-transfer protocol in action.

   One replica of partition 0 is artificially slowed down while clients
   hammer multi-partition increments under majority-only coordination.
   The slow replica falls behind the fast majority, its remote reads
   start returning only too-new versions, and it recovers through the
   state-transfer protocol (Algorithm 3). The demo prints a timeline of
   lagger events and verifies the replica converged afterwards.

     dune exec examples/recovery_demo.exe *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv

let () =
  let eng = Engine.create ~seed:21 () in
  let cfg =
    let c = Config.default ~partitions:2 ~replicas:3 in
    (* Majority-only coordination: the paper's anti-lagger grace delay
       is off, so a slow replica really can be left behind. *)
    { c with Config.wait_phase4 = Config.Majority }
  in
  let sys = System.create eng ~cfg ~app:(Kv_app.app ~keys:4 ~partitions:2 ~init:0L) in
  System.start sys;

  let slow = System.replica sys ~part:0 ~idx:2 in
  (* Replicas record into the deployment's registry, labelled by slot. *)
  let count ~idx name =
    let labels = [ ("part", "0"); ("idx", string_of_int idx) ] in
    match Heron_obs.Metrics.(find (snapshot cfg.Config.metrics)) ~labels name with
    | Some (Heron_obs.Metrics.Counter_v n) -> n
    | _ -> 0
  in
  Replica.inject_exec_delay slow (Time_ns.us 300);
  Format.printf "replica p0/r2 slowed by 300us per request@.";

  for c = 0 to 2 do
    let node = System.new_client_node sys ~name:(Printf.sprintf "client-%d" c) in
    Fabric.spawn_on node (fun () ->
        for _ = 1 to 50 do
          ignore (System.submit sys ~from:node (Kv_app.Incr_all [ 0; 1 ]))
        done)
  done;

  (* A monitor printing lagger/state-transfer events as they happen. *)
  Engine.spawn eng (fun () ->
      let last = ref (0, 0, 0) in
      for _ = 1 to 400 do
        Engine.sleep (Time_ns.ms 1);
        let now =
          ( count ~idx:2 "coord.lagger_detections",
            count ~idx:2 "replica.skipped_deliveries",
            count ~idx:2 "replica.executed" )
        in
        if now <> !last then begin
          let l, s, e = now in
          Format.printf "t=%a  p0/r2: laggers=%d skipped=%d executed=%d@." Time_ns.pp
            (Engine.self_now ()) l s e;
          last := now
        end
      done);

  Engine.run_until eng (Time_ns.ms 200);

  (* Let the slow replica drain at normal speed, then compare state. *)
  Replica.inject_exec_delay slow 0;
  Engine.run_until eng (Time_ns.ms 400);

  let laggers = count ~idx:2 "coord.lagger_detections" in
  Format.printf "@.lagger events    : %d@." laggers;
  Format.printf "skipped deliveries: %d (covered by state transfer)@."
    (count ~idx:2 "replica.skipped_deliveries");
  List.iter
    (fun idx ->
      let donors = count ~idx "coord.state_transfers" in
      if donors > 0 then Format.printf "replica p0/r%d served %d state transfer(s)@." idx donors)
    [ 0; 1 ];

  let reference = Replica.store (System.replica sys ~part:0 ~idx:0) in
  let diverged = ref false in
  List.iter
    (fun oid ->
      let v0, _ = Versioned_store.get reference oid in
      let v2, _ = Versioned_store.get (Replica.store slow) oid in
      if not (Bytes.equal v0 v2) then diverged := true)
    (Versioned_store.registered_oids reference);
  Format.printf "final state       : %s@."
    (if !diverged then "DIVERGED" else "converged with the majority");
  if !diverged || laggers = 0 then exit 1
