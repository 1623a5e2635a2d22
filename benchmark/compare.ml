(* Parent-versus-change comparison over saved results (--out files):
   one row per workload and end-to-end metric, judged by the metric's
   bound from BENCHMARK.json and the rule for claiming a gain (medians
   and quartiles, at least 9 in 10 paired wins, and a median gap wider
   than the parent's interquartile range). *)

module Json = Heron_obs.Json

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (its default "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* (workload, seed, metric values) of one saved result *)
let load path =
  let j = Json.parse_exn (Spec.read_file path) in
  let field k =
    match Json.member k j with Some v -> v | None -> failwith (path ^ ": no " ^ k)
  in
  let metrics =
    match Json.member "metrics" (field "result") with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (name, m) ->
            match Json.member "value" m with
            | Some (Json.Float f) -> Some (name, f)
            | Some (Json.Int i) -> Some (name, float_of_int i)
            | _ -> None)
          kvs
    | _ -> failwith (path ^ ": no metrics")
  in
  match (field "workload", field "seed") with
  | Json.String w, Json.Int seed -> (w, seed, metrics)
  | _ -> failwith (path ^ ": bad workload or seed")

(* [base] and [head] are (seed, value) lists; runs with the same seed
   form a pair. *)
let verdict (m : Spec.metric) ~base ~head =
  let better a b = match m.Spec.better with `Lower -> a < b | `Higher -> a > b in
  let bv = List.map snd base and hv = List.map snd head in
  let pairs =
    List.filter_map (fun (s, h) -> Option.map (fun b -> (b, h)) (List.assoc_opt s base)) head
  in
  let wins = List.length (List.filter (fun (b, h) -> better h b) pairs) in
  let mb = median bv and mh = median hv in
  (* relative change, positive when the change reads worse *)
  let worse =
    (match m.Spec.better with `Lower -> mh -. mb | `Higher -> mb -. mh) /. Float.abs mb
  in
  let q1, q3 = quartiles bv in
  let bound = Option.value m.Spec.bound ~default:0. in
  let v =
    if spread bv > bound || spread hv > bound then
      if List.for_all (fun h -> List.for_all (better h) bv) hv then "better in every run"
      else "unresolved"
    else if worse > bound then "REGRESSION"
    else if
      pairs <> [] && 10 * wins >= 9 * List.length pairs && Float.abs (mh -. mb) > q3 -. q1
    then "gain"
    else "no change"
  in
  (worse, wins, List.length pairs, v)

let run ~spec ~base ~head =
  let spec = Spec.load spec in
  let base = List.map load base and head = List.map load head in
  let values side w name =
    List.filter_map
      (fun (w', seed, ms) ->
        if w' = w then Option.map (fun v -> (seed, v)) (List.assoc_opt name ms) else None)
      side
  in
  let cell xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (median xs) q1 q3
  in
  Printf.printf "%-20s %-14s %-6s %30s %30s %8s %6s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "worse" "wins" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values base w m.Spec.name, values head w m.Spec.name) with
          | [], _ | _, [] -> ()
          | b, h ->
              let worse, wins, pairs, v = verdict m ~base:b ~head:h in
              if v = "REGRESSION" then incr regressions;
              Printf.printf "%-20s %-14s %-6s %30s %30s %+7.2f%% %3d/%-2d  %s\n" w
                m.Spec.name m.Spec.unit_
                (cell (List.map snd b))
                (cell (List.map snd h))
                (100. *. worse) wins pairs v)
        spec.Spec.end_to_end)
    (List.sort_uniq compare (List.map (fun (w, _, _) -> w) (base @ head)));
  if !regressions > 0 then 1 else 0
