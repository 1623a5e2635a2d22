(* trace_event timestamps are in microseconds; emit fractional values so
   no nanosecond precision is lost. *)
let us_of_ns ns = Json.Float (float_of_int ns /. 1_000.)

let thread_meta ~pid ~tid name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let process_meta ~pid name =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let string_args attrs = List.map (fun (k, v) -> (k, Json.String v)) attrs

let replica_of (s : Reqtrace.span) =
  let attr k = Option.bind (List.assoc_opt k s.Reqtrace.rs_attrs) int_of_string_opt in
  match (attr "part", attr "idx") with
  | Some part, Some idx -> Some (part, idx)
  | _ -> None

let replica_lanes trees =
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun tree ->
      List.iter
        (fun (s : Reqtrace.span) ->
          if s != tree.Reqtrace.tr_root then
            Option.iter
              (fun r ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt lanes r) in
                Hashtbl.replace lanes r (s :: prev))
              (replica_of s))
        (tree.Reqtrace.tr_spans @ List.rev tree.Reqtrace.tr_after))
    trees;
  Hashtbl.fold (fun r spans acc -> (r, List.rev spans) :: acc) lanes []
  |> List.sort compare

(* One process per replica, one track per stage numbered by first
   appearance. *)
let replica_events trees =
  List.concat
    (List.mapi
       (fun i ((part, idx), spans) ->
         let pid = i + 1 in
         let tids = Hashtbl.create 8 in
         let tid_meta = ref [] in
         let tid_of stage =
           match Hashtbl.find_opt tids stage with
           | Some tid -> tid
           | None ->
               let tid = Hashtbl.length tids + 1 in
               Hashtbl.replace tids stage tid;
               tid_meta := thread_meta ~pid ~tid stage :: !tid_meta;
               tid
         in
         let span_event (s : Reqtrace.span) =
           let after = if s.Reqtrace.rs_id = 0 then [ ("after_reply", Json.Bool true) ] else [] in
           Json.Obj
             [
               ("name", Json.String s.Reqtrace.rs_stage);
               ("ph", Json.String "X");
               ("pid", Json.Int pid);
               ("tid", Json.Int (tid_of s.Reqtrace.rs_stage));
               ("ts", us_of_ns s.Reqtrace.rs_start);
               ("dur", us_of_ns (s.Reqtrace.rs_end - s.Reqtrace.rs_start));
               ( "args",
                 Json.Obj
                   ((("trace", Json.Int s.Reqtrace.rs_trace) :: after)
                   @ string_args s.Reqtrace.rs_attrs) );
             ]
         in
         let events = List.map span_event spans in
         (process_meta ~pid (Printf.sprintf "replica p%d/r%d" part idx)
          :: List.rev !tid_meta)
         @ events)
       (replica_lanes trees))

(* Request-scoped trees (DESIGN.md §11): one dedicated process, one
   track per request, one "X" event per span. The args carry the exact
   causal structure — trace id, span id, parent id and nanosecond
   endpoints — so [request_spans_of_json] (and [probe explain]) can
   rebuild the trees from a dump without precision loss. *)
let request_pid = 1000

let request_events trees =
  let track tree =
    let trace = tree.Reqtrace.tr_trace in
    thread_meta ~pid:request_pid ~tid:trace (Printf.sprintf "req %d" trace)
  in
  let span_event (s : Reqtrace.span) =
    Json.Obj
      [
        ("name", Json.String s.Reqtrace.rs_stage);
        ("ph", Json.String "X");
        ("pid", Json.Int request_pid);
        ("tid", Json.Int s.Reqtrace.rs_trace);
        ("ts", us_of_ns s.Reqtrace.rs_start);
        ("dur", us_of_ns (s.Reqtrace.rs_end - s.Reqtrace.rs_start));
        ( "args",
          Json.Obj
            ([
               ("trace", Json.Int s.Reqtrace.rs_trace);
               ("span", Json.Int s.Reqtrace.rs_id);
               ("parent", Json.Int s.Reqtrace.rs_parent);
               ("start_ns", Json.Int s.Reqtrace.rs_start);
               ("end_ns", Json.Int s.Reqtrace.rs_end);
             ]
            @ string_args s.Reqtrace.rs_attrs) );
      ]
  in
  process_meta ~pid:request_pid "requests"
  :: List.map track trees
  @ List.concat_map
      (fun tree -> List.map span_event tree.Reqtrace.tr_spans)
      trees

let perfetto trees =
  let events =
    replica_events trees @ if trees = [] then [] else request_events trees
  in
  Json.Obj
    [
      ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ns");
    ]

let write_file path trees =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (perfetto trees);
      output_char oc '\n')

let request_spans_of_json doc =
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let int_arg args key =
    match Json.member key args with Some (Json.Int i) -> Some i | _ -> None
  in
  List.filter_map
    (fun ev ->
      match (Json.member "ph" ev, Json.member "pid" ev, Json.member "args" ev) with
      | Some (Json.String "X"), Some (Json.Int pid), Some (Json.Obj fields as args)
        when pid = request_pid -> (
          match
            ( int_arg args "trace",
              int_arg args "span",
              int_arg args "parent",
              int_arg args "start_ns",
              int_arg args "end_ns" )
          with
          | Some trace, Some id, Some parent, Some start, Some stop ->
              let stage =
                match Json.member "name" ev with
                | Some (Json.String s) -> s
                | _ -> "?"
              in
              let attrs =
                List.filter_map
                  (function k, Json.String v -> Some (k, v) | _ -> None)
                  fields
              in
              Some
                {
                  Reqtrace.rs_trace = trace;
                  rs_id = id;
                  rs_parent = parent;
                  rs_stage = stage;
                  rs_start = start;
                  rs_end = stop;
                  rs_attrs = attrs;
                }
          | _ -> None)
      | _ -> None)
    events
