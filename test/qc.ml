(* QCheck properties as Alcotest cases, with a failure that says how to
   replay it.

   One seed per process, taken from QCHECK_SEED or drawn at random and
   printed, exactly as qcheck-alcotest does; every property starts its
   own generator from that seed. When a property fails, the counterexample
   is followed by the command that re-runs this suite with the same
   seed. *)

let seed =
  lazy
    (let s =
       match int_of_string_opt (Sys.getenv "QCHECK_SEED") with
       | Some s -> s
       | None | (exception Not_found) ->
           Random.self_init ();
           Random.int 1_000_000_000
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

let replay_command seed =
  Printf.sprintf "QCHECK_SEED=%d dune exec test/%s.exe" seed
    (Filename.remove_extension (Filename.basename Sys.executable_name))

let test t =
  let seed = Lazy.force seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "replay: %s\n%!" (replay_command seed);
        raise e )

(* [QCheck.int_range lo hi] shrinks towards 0, so a property over
   [int_range 1 4] can report 0 as its counterexample. This one draws
   the same values and shrinks towards [lo] without leaving [lo, hi]. *)
let int_range lo hi =
  QCheck.make ~print:string_of_int
    ~shrink:(fun x yield -> QCheck.Shrink.int (x - lo) (fun d -> yield (lo + d)))
    (QCheck.Gen.int_range lo hi)
