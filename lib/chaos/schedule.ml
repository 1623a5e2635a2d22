module Json = Heron_obs.Json

type event =
  | Crash of { part : int; idx : int; at : int }
  | Restart of { part : int; idx : int; at : int }
  | Delay_link of { src : int * int; dst : int * int; extra_ns : int; at : int; span : int }
  | Drop_writes of { src : int * int; dst : int * int; at : int; span : int }
  | Pause_replica of { part : int; idx : int; extra_ns : int; at : int; span : int }
  | Migrate of { key : int; dst : int; at : int }
      (* live-migrate one key to partition [dst]; the source is resolved
         from the placement directory at fire time, and the injection is
         skipped if the key already lives there *)
  | Split of { shard : int; at : int }
      (* split a shard of the elastic table (DESIGN.md §15); [shard] is
         reduced modulo the table's size at fire time, so a pinned
         schedule stays meaningful whatever earlier splits/merges did *)
  | Merge of { left : int; at : int }
      (* merge the adjacent pair at [left mod (size - 1)]; skipped if
         the table is down to one shard at fire time *)

type workload = Incr_all | Mixed

type deployment = {
  pipeline : bool;
  fast_reads : bool;
  durability : bool;
  longhaul : bool;
}

let no_features =
  { pipeline = false; fast_reads = false; durability = false; longhaul = false }

let deployment_fields d =
  [ ("pipeline", d.pipeline); ("fast_reads", d.fast_reads);
    ("durability", d.durability); ("longhaul", d.longhaul) ]

let features d =
  List.filter_map (fun (name, on) -> if on then Some name else None)
    (deployment_fields d)

type t = {
  sc_seed : int;
  sc_partitions : int;
  sc_replicas : int;
  sc_keys : int;
  sc_clients : int;
  sc_ops : int;
  sc_workload : workload;
  sc_horizon_ns : int;
  sc_think_ns : int;
  sc_shards : int;
      (* deployment-time shards of the elastic topology; 0 (the
         default, and what pre-topology pins decode to) runs with the
         topology off *)
  sc_deployment : deployment;
  sc_events : event list;
}

let default_horizon_ns = 60_000_000

let event_time = function
  | Crash { at; _ } | Restart { at; _ } | Delay_link { at; _ }
  | Drop_writes { at; _ } | Pause_replica { at; _ } | Migrate { at; _ }
  | Split { at; _ } | Merge { at; _ } ->
      at

let event_end = function
  | Crash { at; _ } | Restart { at; _ } | Migrate { at; _ }
  | Split { at; _ } | Merge { at; _ } ->
      at
  | Delay_link { at; span; _ } | Drop_writes { at; span; _ }
  | Pause_replica { at; span; _ } ->
      at + span

let normalize t =
  { t with
    sc_events =
      List.stable_sort (fun a b -> compare (event_time a) (event_time b)) t.sc_events }

(* {1 Generation} *)

(* All generator randomness comes from one private stream so the
   mapping seed -> schedule is stable across runs and machines. *)
let generate ~seed =
  let rng = Random.State.make [| seed; 0xC1A05 |] in
  let int = Random.State.int rng in
  let partitions = 2 and replicas = 3 in
  let workload = if int 2 = 0 then Incr_all else Mixed in
  (* Crash/restart rounds: strictly sequential in time, follower
     indices only, so at most one replica is ever down and the
     multicast leader (index 0) never moves. Times are dense in the
     first few milliseconds, while client traffic is in flight — a
     crash after traffic drains exercises nothing. *)
  let rounds = 1 + int 4 in
  let events = ref [] in
  let t = ref 0 in
  let first_crash = ref max_int in
  for _ = 1 to rounds do
    let crash_at = !t + 150_000 + int 850_000 in
    let restart_at = crash_at + 250_000 + int 950_000 in
    let part = int partitions and idx = 1 + int (replicas - 1) in
    if !first_crash = max_int then first_crash := crash_at;
    events := Restart { part; idx; at = restart_at } :: Crash { part; idx; at = crash_at } :: !events;
    t := restart_at
  done;
  (* Laggers: slow a replica's execution for a bounded span. *)
  for _ = 1 to int 3 do
    events :=
      Pause_replica
        { part = int partitions; idx = int replicas;
          extra_ns = 5_000 + int 25_000; at = int 4_000_000;
          span = 200_000 + int 1_800_000 }
      :: !events
  done;
  (* Link latency on distinct directed links (overlapping faults on one
     link would clobber each other's spans). *)
  let used_links = ref [] in
  let pick_link ~cross_only =
    let rec go tries =
      if tries = 0 then None
      else
        let src = (int partitions, int replicas) in
        let dst = (int partitions, int replicas) in
        if src = dst
           || (cross_only && fst src = fst dst)
           || List.mem (src, dst) !used_links
        then go (tries - 1)
        else begin
          used_links := (src, dst) :: !used_links;
          Some (src, dst)
        end
    in
    go 8
  in
  for _ = 1 to int 3 do
    match pick_link ~cross_only:false with
    | None -> ()
    | Some (src, dst) ->
        events :=
          Delay_link
            { src; dst; extra_ns = 2_000 + int 40_000; at = int 4_000_000;
              span = 200_000 + int 1_800_000 }
          :: !events
  done;
  (* One drop fault, cross-partition, ending before the first crash:
     with every replica up, losing one replica's announcements still
     leaves a majority, so the run cannot wedge. Intra-partition drops
     are excluded — they can eat a state-transfer completion notice,
     which (unlike coordination) has no majority to fall back on. *)
  if int 2 = 0 && !first_crash > 220_000 then begin
    let span = 100_000 + int (min 400_000 (!first_crash - 120_000)) in
    let at = int (!first_crash - span - 10_000) in
    match pick_link ~cross_only:true with
    | None -> ()
    | Some (src, dst) -> events := Drop_writes { src; dst; at; span } :: !events
  end;
  (* Live repartitioning: occasionally migrate keys mid-run so placement
     changes race crashes, restarts, laggers and client traffic. Drawn
     after every earlier event so older seeds keep their fault pattern. *)
  for _ = 1 to int 3 do
    events :=
      Migrate { key = int 4; dst = int partitions; at = 150_000 + int 4_000_000 }
      :: !events
  done;
  normalize
    {
      sc_seed = seed;
      sc_partitions = partitions;
      sc_replicas = replicas;
      sc_keys = 4;
      sc_clients = 3;
      sc_ops = 40;
      sc_workload = workload;
      sc_horizon_ns = default_horizon_ns;
      sc_think_ns = 0;
      sc_shards = 0;
      sc_deployment = no_features;
      sc_events = !events;
    }

(* Reconfig-focused generator: every schedule carries migrations, and
   their times cluster around the crash/restart windows so a crash lands
   during an in-flight migration as often as possible (the sweep the CI
   reconfig job runs). *)
let generate_reconfig ~seed =
  let rng = Random.State.make [| seed; 0x4EC0F |] in
  let int = Random.State.int rng in
  let partitions = 2 and replicas = 3 in
  let workload = if int 3 = 0 then Incr_all else Mixed in
  let events = ref [] in
  let t = ref 0 in
  let rounds = 1 + int 2 in
  for _ = 1 to rounds do
    let crash_at = !t + 200_000 + int 900_000 in
    let restart_at = crash_at + 250_000 + int 950_000 in
    let part = int partitions and idx = 1 + int (replicas - 1) in
    events :=
      Restart { part; idx; at = restart_at }
      :: Crash { part; idx; at = crash_at }
      :: !events;
    (* One or two migrations inside [crash - 200us, restart + 300us]. *)
    for _ = 1 to 1 + int 2 do
      let at = max 0 (crash_at - 200_000 + int (restart_at - crash_at + 500_000)) in
      events := Migrate { key = int 4; dst = int partitions; at } :: !events
    done;
    t := restart_at
  done;
  if int 2 = 0 then
    events :=
      Pause_replica
        { part = int partitions; idx = int replicas;
          extra_ns = 5_000 + int 25_000; at = int 3_000_000;
          span = 200_000 + int 1_800_000 }
      :: !events;
  normalize
    {
      sc_seed = seed;
      sc_partitions = partitions;
      sc_replicas = replicas;
      sc_keys = 4;
      sc_clients = 3;
      sc_ops = 40;
      sc_workload = workload;
      sc_horizon_ns = default_horizon_ns;
      sc_think_ns = 0;
      sc_shards = 0;
      sc_deployment = no_features;
      sc_events = !events;
    }

(* Longhaul generator (DESIGN.md §13): minutes of virtual time per run
   instead of milliseconds, client traffic paced with think time so it
   spans the whole horizon, and repeated crash/rejoin/migrate cycles
   spaced tens of virtual seconds apart. Between cycles the durability
   layer (which this family's deployment switches on) checkpoints
   many times, so every rejoin lands long after log prefixes were
   truncated — the regime where bootstrap-from-checkpoint is the only
   correct recovery path. A ~100-seed sweep covers about a day of
   virtual time in aggregate. *)
let generate_longhaul ~seed =
  let rng = Random.State.make [| seed; 0x10_46A |] in
  (* [Random.State.int] caps its bound at 2^30; second-scale nanosecond
     spans need [full_int]. *)
  let int = Random.State.full_int rng in
  let partitions = 2 and replicas = 3 in
  let workload = if int 4 = 0 then Incr_all else Mixed in
  let cycles = 8 + int 13 in
  let period () = 30_000_000_000 + int 30_000_000_000 in
  let events = ref [] in
  let t = ref (period ()) in
  for _ = 1 to cycles do
    let crash_at = !t in
    let down = 50_000_000 + int 450_000_000 in
    let restart_at = crash_at + down in
    let part = int partitions and idx = 1 + int (replicas - 1) in
    events :=
      Restart { part; idx; at = restart_at }
      :: Crash { part; idx; at = crash_at }
      :: !events;
    (* Migrations racing the down window (and its borders), so
       checkpoint/truncate runs concurrently with the §10 freeze. *)
    for _ = 1 to int 3 do
      let at = max 0 (crash_at - 1_000_000_000 + int (down + 2_000_000_000)) in
      events := Migrate { key = int 4; dst = int partitions; at } :: !events
    done;
    (* Occasional lagger between cycles: the slow replica's published
       frontier holds everyone's truncation back, bounding it anyway. *)
    if int 4 = 0 then
      events :=
        Pause_replica
          { part = int partitions; idx = int replicas;
            extra_ns = 5_000 + int 25_000;
            at = restart_at + 2_000_000_000 + int 10_000_000_000;
            span = 1_000_000_000 + int 4_000_000_000 }
        :: !events;
    t := restart_at + period ()
  done;
  let horizon = !t + 10_000_000_000 in
  let ops = 100 + int 80 in
  (* Pace clients to finish around 85% of the horizon. *)
  let think = horizon * 85 / (100 * ops) in
  normalize
    {
      sc_seed = seed;
      sc_partitions = partitions;
      sc_replicas = replicas;
      sc_keys = 4;
      sc_clients = 3;
      sc_ops = ops;
      sc_workload = workload;
      sc_horizon_ns = horizon;
      sc_think_ns = think;
      sc_shards = 0;
      sc_deployment = { no_features with durability = true; longhaul = true };
      sc_events = !events;
    }

(* Elastic-focused generator (DESIGN.md §15): every schedule runs with
   the topology on — a 4-group pool with 2 deployment-time shards — and
   carries shard splits and merges whose times cluster around the
   crash/restart windows, so a crash lands while a split's freeze or
   bootstrap is in flight as often as possible (the crash-mid-split
   sweep the CI elastic job runs). Stays inside the f = 1 envelope:
   follower-only crashes, one replica down at a time. *)
let generate_elastic ~seed =
  let rng = Random.State.make [| seed; 0xE1A57 |] in
  let int = Random.State.int rng in
  let partitions = 4 and replicas = 3 and keys = 8 in
  let workload = if int 3 = 0 then Incr_all else Mixed in
  let events = ref [] in
  let t = ref 0 in
  let rounds = 1 + int 2 in
  for _ = 1 to rounds do
    let crash_at = !t + 200_000 + int 900_000 in
    let restart_at = crash_at + 250_000 + int 950_000 in
    let part = int partitions and idx = 1 + int (replicas - 1) in
    events :=
      Restart { part; idx; at = restart_at }
      :: Crash { part; idx; at = crash_at }
      :: !events;
    (* One or two splits/merges inside [crash - 200us, restart + 300us];
       indices are reduced against the live table at fire time, so any
       draw is meaningful. Splits outnumber merges two to one — a merge
       needs an earlier split to have something to undo. *)
    for _ = 1 to 1 + int 2 do
      let at = max 0 (crash_at - 200_000 + int (restart_at - crash_at + 500_000)) in
      events :=
        (if int 3 < 2 then Split { shard = int 4; at }
         else Merge { left = int 3; at })
        :: !events
    done;
    (* Sometimes an object migration racing the shard ops, so overrides
       and table changes interleave in the epoch stream. *)
    if int 2 = 0 then begin
      let at = max 0 (crash_at - 100_000 + int (restart_at - crash_at + 300_000)) in
      events := Migrate { key = int keys; dst = int partitions; at } :: !events
    end;
    t := restart_at
  done;
  if int 2 = 0 then
    events :=
      Pause_replica
        { part = int partitions; idx = int replicas;
          extra_ns = 5_000 + int 25_000; at = int 3_000_000;
          span = 200_000 + int 1_800_000 }
      :: !events;
  normalize
    {
      sc_seed = seed;
      sc_partitions = partitions;
      sc_replicas = replicas;
      sc_keys = keys;
      sc_clients = 3;
      sc_ops = 40;
      sc_workload = workload;
      sc_horizon_ns = default_horizon_ns;
      sc_think_ns = 0;
      sc_shards = 2;
      sc_deployment = no_features;
      sc_events = !events;
    }

(* {1 Validation} *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok_replica (part, idx) =
    part >= 0 && part < t.sc_partitions && idx >= 0 && idx < t.sc_replicas
  in
  if t.sc_partitions < 1 then err "partitions must be positive"
  else if t.sc_replicas < 3 || t.sc_replicas mod 2 = 0 then
    err "replicas must be odd and at least 3"
  else if t.sc_keys < 2 then err "need at least 2 keys"
  else if t.sc_clients < 1 || t.sc_ops < 1 then err "need clients and ops"
  else if t.sc_horizon_ns < 1_000_000 then err "horizon shorter than 1ms"
  else if t.sc_think_ns < 0 then err "negative think time"
  else if t.sc_shards < 0 || t.sc_shards > t.sc_partitions then
    err "shards out of range (need 0 <= shards <= partitions)"
  else if
    t.sc_shards = 0
    && List.exists
         (function Split _ | Merge _ -> true | _ -> false)
         t.sc_events
  then err "split/merge events require a nonzero shard count"
  else begin
    let bad = ref None in
    let check_event e =
      let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
      (match e with
      | Crash { part; idx; at } | Restart { part; idx; at } ->
          if not (ok_replica (part, idx)) then
            fail "replica (%d,%d) out of range" part idx
          else if idx = 0 then fail "crash/restart of index 0 (the multicast leader)"
          else if at < 0 then fail "negative event time"
      | Delay_link { src; dst; extra_ns; at; span } ->
          if not (ok_replica src && ok_replica dst) then fail "link endpoint out of range"
          else if src = dst then fail "link fault with src = dst"
          else if extra_ns < 0 || at < 0 || span < 0 then fail "negative delay parameters"
      | Drop_writes { src; dst; at; span } ->
          if not (ok_replica src && ok_replica dst) then fail "link endpoint out of range"
          else if src = dst then fail "drop fault with src = dst"
          else if at < 0 || span < 0 then fail "negative drop parameters"
      | Pause_replica { part; idx; extra_ns; at; span } ->
          if not (ok_replica (part, idx)) then
            fail "replica (%d,%d) out of range" part idx
          else if extra_ns < 0 || at < 0 || span < 0 then fail "negative pause parameters"
      | Migrate { key; dst; at } ->
          if key < 0 || key >= t.sc_keys then fail "migration key %d out of range" key
          else if dst < 0 || dst >= t.sc_partitions then
            fail "migration destination %d out of range" dst
          else if at < 0 then fail "negative migration time"
      | Split { shard; at } ->
          if shard < 0 then fail "negative split shard index"
          else if at < 0 then fail "negative split time"
      | Merge { left; at } ->
          if left < 0 then fail "negative merge pair index"
          else if at < 0 then fail "negative merge time")
    in
    List.iter check_event t.sc_events;
    let rec sorted = function
      | a :: (b :: _ as rest) -> event_time a <= event_time b && sorted rest
      | _ -> true
    in
    if !bad <> None then Error (Option.get !bad)
    else if not (sorted t.sc_events) then err "events not sorted by time"
    else begin
      (* Per replica, crashes and restarts must alternate starting with
         a crash (a shrunk schedule may end while down). *)
      let down = Hashtbl.create 8 in
      let alternation_ok =
        List.for_all
          (function
            | Crash { part; idx; _ } ->
                if Hashtbl.mem down (part, idx) then false
                else (Hashtbl.add down (part, idx) (); true)
            | Restart { part; idx; _ } ->
                if Hashtbl.mem down (part, idx) then (Hashtbl.remove down (part, idx); true)
                else false
            | _ -> true)
          t.sc_events
      in
      if alternation_ok then Ok () else err "crash/restart events do not alternate"
    end
  end

(* {1 JSON} *)

let replica_fields prefix (part, idx) =
  [ (prefix ^ "_part", Json.Int part); (prefix ^ "_idx", Json.Int idx) ]

let event_to_json = function
  | Crash { part; idx; at } ->
      Json.Obj
        [ ("kind", Json.String "crash"); ("part", Json.Int part);
          ("idx", Json.Int idx); ("at_ns", Json.Int at) ]
  | Restart { part; idx; at } ->
      Json.Obj
        [ ("kind", Json.String "restart"); ("part", Json.Int part);
          ("idx", Json.Int idx); ("at_ns", Json.Int at) ]
  | Delay_link { src; dst; extra_ns; at; span } ->
      Json.Obj
        (( ("kind", Json.String "delay_link") :: replica_fields "src" src )
        @ replica_fields "dst" dst
        @ [ ("extra_ns", Json.Int extra_ns); ("at_ns", Json.Int at);
            ("span_ns", Json.Int span) ])
  | Drop_writes { src; dst; at; span } ->
      Json.Obj
        (( ("kind", Json.String "drop_writes") :: replica_fields "src" src )
        @ replica_fields "dst" dst
        @ [ ("at_ns", Json.Int at); ("span_ns", Json.Int span) ])
  | Pause_replica { part; idx; extra_ns; at; span } ->
      Json.Obj
        [ ("kind", Json.String "pause"); ("part", Json.Int part);
          ("idx", Json.Int idx); ("extra_ns", Json.Int extra_ns);
          ("at_ns", Json.Int at); ("span_ns", Json.Int span) ]
  | Migrate { key; dst; at } ->
      Json.Obj
        [ ("kind", Json.String "migrate"); ("key", Json.Int key);
          ("dst_part", Json.Int dst); ("at_ns", Json.Int at) ]
  | Split { shard; at } ->
      Json.Obj
        [ ("kind", Json.String "split"); ("shard", Json.Int shard);
          ("at_ns", Json.Int at) ]
  | Merge { left; at } ->
      Json.Obj
        [ ("kind", Json.String "merge"); ("left", Json.Int left);
          ("at_ns", Json.Int at) ]

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("seed", Json.Int t.sc_seed);
      ("partitions", Json.Int t.sc_partitions);
      ("replicas", Json.Int t.sc_replicas);
      ("keys", Json.Int t.sc_keys);
      ("clients", Json.Int t.sc_clients);
      ("ops_per_client", Json.Int t.sc_ops);
      ( "workload",
        Json.String (match t.sc_workload with Incr_all -> "incr_all" | Mixed -> "mixed") );
      ("horizon_ns", Json.Int t.sc_horizon_ns);
      ("think_ns", Json.Int t.sc_think_ns);
      ("shards", Json.Int t.sc_shards);
      ( "deployment",
        Json.Obj
          (List.map (fun (k, b) -> (k, Json.Bool b)) (deployment_fields t.sc_deployment))
      );
      ("events", Json.List (List.map event_to_json t.sc_events));
    ]

exception Bad of string

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | _ -> raise (Bad (Printf.sprintf "missing or non-integer field %S" name))

let string_field name j =
  match Json.member name j with
  | Some (Json.String s) -> s
  | _ -> raise (Bad (Printf.sprintf "missing or non-string field %S" name))

(* Optional with default, so version-1 pins from before the field
   existed keep replaying unchanged. *)
let int_field_opt name ~default j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | Some _ -> raise (Bad (Printf.sprintf "non-integer field %S" name))
  | None -> default

let deployment_of_json j =
  let flag name =
    match Json.member name j with
    | Some (Json.Bool b) -> b
    | Some _ -> raise (Bad (Printf.sprintf "non-boolean deployment field %S" name))
    | None -> false
  in
  { pipeline = flag "pipeline"; fast_reads = flag "fast_reads";
    durability = flag "durability"; longhaul = flag "longhaul" }

let event_of_json j =
  let link () =
    ( (int_field "src_part" j, int_field "src_idx" j),
      (int_field "dst_part" j, int_field "dst_idx" j) )
  in
  match string_field "kind" j with
  | "crash" -> Crash { part = int_field "part" j; idx = int_field "idx" j; at = int_field "at_ns" j }
  | "restart" ->
      Restart { part = int_field "part" j; idx = int_field "idx" j; at = int_field "at_ns" j }
  | "delay_link" ->
      let src, dst = link () in
      Delay_link
        { src; dst; extra_ns = int_field "extra_ns" j; at = int_field "at_ns" j;
          span = int_field "span_ns" j }
  | "drop_writes" ->
      let src, dst = link () in
      Drop_writes { src; dst; at = int_field "at_ns" j; span = int_field "span_ns" j }
  | "pause" ->
      Pause_replica
        { part = int_field "part" j; idx = int_field "idx" j;
          extra_ns = int_field "extra_ns" j; at = int_field "at_ns" j;
          span = int_field "span_ns" j }
  | "migrate" ->
      Migrate
        { key = int_field "key" j; dst = int_field "dst_part" j;
          at = int_field "at_ns" j }
  | "split" -> Split { shard = int_field "shard" j; at = int_field "at_ns" j }
  | "merge" -> Merge { left = int_field "left" j; at = int_field "at_ns" j }
  | k -> raise (Bad (Printf.sprintf "unknown event kind %S" k))

let of_json j =
  try
    (match Json.member "version" j with
    | Some (Json.Int 1) -> ()
    | _ -> raise (Bad "missing or unsupported schedule version"));
    let events =
      match Json.member "events" j with
      | Some (Json.List l) -> List.map event_of_json l
      | _ -> raise (Bad "missing event list")
    in
    Ok
      (normalize
         {
           sc_seed = int_field "seed" j;
           sc_partitions = int_field "partitions" j;
           sc_replicas = int_field "replicas" j;
           sc_keys = int_field "keys" j;
           sc_clients = int_field "clients" j;
           sc_ops = int_field "ops_per_client" j;
           sc_workload =
             (match string_field "workload" j with
             | "incr_all" -> Incr_all
             | "mixed" -> Mixed
             | w -> raise (Bad (Printf.sprintf "unknown workload %S" w)));
           sc_horizon_ns = int_field_opt "horizon_ns" ~default:default_horizon_ns j;
           sc_think_ns = int_field_opt "think_ns" ~default:0 j;
           sc_shards = int_field_opt "shards" ~default:0 j;
           sc_deployment =
             (match Json.member "deployment" j with
             | Some (Json.Obj _ as d) -> deployment_of_json d
             | Some _ -> raise (Bad "non-object field \"deployment\"")
             | None -> no_features);
           sc_events = events;
         })
  with Bad msg -> Error msg

let save t ~file =
  let oc = open_out_bin file in
  Json.to_channel oc (to_json t);
  output_char oc '\n';
  close_out oc

let load ~file =
  match
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Json.parse s
  with
  | Ok j -> of_json j
  | Error msg -> Error msg
  | exception Sys_error msg -> Error msg

(* {1 Printing} *)

let pp_event ppf = function
  | Crash { part; idx; at } -> Format.fprintf ppf "@%dus crash p%d/r%d" (at / 1000) part idx
  | Restart { part; idx; at } ->
      Format.fprintf ppf "@%dus restart p%d/r%d" (at / 1000) part idx
  | Delay_link { src = sp, si; dst = dp, di; extra_ns; at; span } ->
      Format.fprintf ppf "@%dus delay p%d/r%d->p%d/r%d +%dns for %dus" (at / 1000) sp si
        dp di extra_ns (span / 1000)
  | Drop_writes { src = sp, si; dst = dp, di; at; span } ->
      Format.fprintf ppf "@%dus drop p%d/r%d->p%d/r%d for %dus" (at / 1000) sp si dp di
        (span / 1000)
  | Pause_replica { part; idx; extra_ns; at; span } ->
      Format.fprintf ppf "@%dus pause p%d/r%d +%dns for %dus" (at / 1000) part idx
        extra_ns (span / 1000)
  | Migrate { key; dst; at } ->
      Format.fprintf ppf "@%dus migrate k%d->p%d" (at / 1000) key dst
  | Split { shard; at } -> Format.fprintf ppf "@%dus split shard %d" (at / 1000) shard
  | Merge { left; at } -> Format.fprintf ppf "@%dus merge pair %d" (at / 1000) left

let pp ppf t =
  Format.fprintf ppf "seed %d, %dx%d, %d clients x %d %s ops, %dms horizon, %d events%s"
    t.sc_seed t.sc_partitions t.sc_replicas t.sc_clients t.sc_ops
    (match t.sc_workload with Incr_all -> "incr_all" | Mixed -> "mixed")
    (t.sc_horizon_ns / 1_000_000)
    (List.length t.sc_events)
    (match features t.sc_deployment with
    | [] -> ""
    | fs -> ", under " ^ String.concat "+" fs);
  List.iter (fun e -> Format.fprintf ppf "@.  %a" pp_event e) t.sc_events
