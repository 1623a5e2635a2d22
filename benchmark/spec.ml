(* The metric declarations of BENCHMARK.json, which the smoke test and
   the compare tool read. *)

module Json = Heron_obs.Json

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  bound : float option;  (* end-to-end metrics only *)
}

type t = { end_to_end : metric list; per_layer : metric list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let string_field key j =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> failwith (Printf.sprintf "%s: missing string %S" (Json.to_string j) key)

let metric j =
  {
    name = string_field "name" j;
    unit_ = string_field "unit" j;
    better =
      (match string_field "better" j with
      | "lower" -> `Lower
      | "higher" -> `Higher
      | b -> failwith ("bad \"better\": " ^ b));
    bound =
      (match Json.member "bound" j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None);
  }

let load path =
  let j = Json.parse_exn (read_file path) in
  let list key =
    match Json.member key j with
    | Some l -> List.map metric (Json.to_list_exn l)
    | None -> failwith (path ^ ": no " ^ key)
  in
  { end_to_end = list "end_to_end"; per_layer = list "per_layer" }
