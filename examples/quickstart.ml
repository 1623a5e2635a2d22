(* Quickstart: a replicated counter service on Heron.

   Builds a two-partition deployment of the bundled key-value
   application, submits a few requests from a client, and prints the
   responses together with the virtual time they took, then where that
   time went.

     dune exec examples/quickstart.exe *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_kv

let () =
  (* 1. A virtual-time engine: the whole cluster runs inside it. *)
  let eng = Engine.create ~seed:42 () in

  (* 2. A Heron deployment: 2 partitions x 3 replicas, running the KV
     application with 8 integer registers spread over the partitions.
     A request-trace collector records each request's spans. *)
  let reqtrace = Heron_obs.Reqtrace.create () in
  let cfg = { (Config.default ~partitions:2 ~replicas:3) with Config.reqtrace = Some reqtrace } in
  let app = Kv_app.app ~keys:8 ~partitions:2 ~init:0L in
  let sys = System.create eng ~cfg ~app in
  System.start sys;

  (* 3. A client machine. Client code runs in a fiber on its node and
     uses blocking calls; System.submit returns one response per
     involved partition. *)
  let client = System.new_client_node sys ~name:"quickstart-client" in
  Fabric.spawn_on client (fun () ->
      let time_of op req =
        let t0 = Engine.self_now () in
        let resps = System.submit sys ~from:client req in
        let dt = Engine.self_now () - t0 in
        Format.printf "%-28s -> %a   (%a, %d partition%s)@." op Kv_app.pp_resp
          (snd (List.hd resps)) Time_ns.pp dt (List.length resps)
          (if List.length resps = 1 then "" else "s");
        resps
      in
      (* Single-partition requests: classic SMR, no coordination. *)
      ignore (time_of "Put key0 := 10" (Kv_app.Put (0, 10L)));
      ignore (time_of "Put key1 := 32" (Kv_app.Put (1, 32L)));
      ignore (time_of "Add key0 += 5" (Kv_app.Add (0, 5L)));
      ignore (time_of "Get key0" (Kv_app.Get 0));
      (* Keys 0 and 1 live in different partitions: this read is a
         multi-partition request, linearized by Phases 2 and 4 and
         served with one-sided remote reads. *)
      ignore (time_of "Read_all [key0; key1]" (Kv_app.Read_all [ 0; 1 ]));
      ignore (time_of "Incr_all [key0; key1]" (Kv_app.Incr_all [ 0; 1 ]));
      ignore (time_of "Read_all [key0; key1]" (Kv_app.Read_all [ 0; 1 ])));

  (* 4. Run the virtual clock. *)
  Engine.run_until eng (Time_ns.ms 10);
  Format.printf "virtual time elapsed: %a@." Time_ns.pp (Engine.now eng);

  (* 5. Where each request's time went: its critical path through
     ordering, coordination phases and execution. *)
  Format.printf "@.critical paths of the requests:@.";
  List.iter
    (fun tree -> Format.printf "%s@." (Heron_obs.Reqtrace.render_tree tree))
    (Heron_obs.Reqtrace.export_trees reqtrace)
