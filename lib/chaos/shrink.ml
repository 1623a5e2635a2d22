let reproduces sc events ~kind =
  match Driver.run { sc with Schedule.sc_events = events } with
  | Driver.Failed f -> String.equal (Driver.failure_kind f) kind
  | Driver.Completed _ -> false

(* Split [l] into [n] chunks of near-equal length (first chunks get the
   remainder). *)
let chunks n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i = n then List.rev acc
    else
      let k = base + if i < extra then 1 else 0 in
      let rec take k l acc = if k = 0 then (List.rev acc, l)
        else match l with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
      in
      let chunk, rest = take k rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 l []

let minimize sc ~kind =
  let rec ddmin events n =
    let len = List.length events in
    if len <= 1 then events
    else
      let parts = chunks (min n len) events in
      (* Prefer reducing to a complement (drop one chunk); reducing to
         a single chunk is the same move at granularity 2. *)
      let rec try_complements before = function
        | [] -> None
        | chunk :: after ->
            let complement = List.concat (List.rev_append before after) in
            if complement <> [] && reproduces sc complement ~kind then
              Some complement
            else try_complements (chunk :: before) after
      in
      match try_complements [] parts with
      | Some smaller -> ddmin smaller (max (min n (List.length smaller)) 2)
      | None -> if n >= len then events else ddmin events (min len (2 * n))
  in
  let events = sc.Schedule.sc_events in
  if events = [] || not (reproduces sc events ~kind) then sc
  else { sc with Schedule.sc_events = ddmin events 2 }
