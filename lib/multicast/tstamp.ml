type t = { clock : int; uid : int }

let zero = { clock = 0; uid = 0 }
let make ~clock ~uid = { clock; uid }

let compare a b =
  match Stdlib.compare a.clock b.clock with
  | 0 -> Stdlib.compare a.uid b.uid
  | c -> c

let equal a b = compare a b = 0

(* 39 + 23 bits: a packed stamp is a non-negative OCaml int, so packed
   stamps compare as ints in timestamp order. *)
let clock_bits = 39
let uid_bits = 23

let to_int t =
  if t.clock < 0 || t.clock lsr clock_bits <> 0 then
    invalid_arg "Tstamp.to_int64: clock out of range";
  if t.uid < 0 || t.uid lsr uid_bits <> 0 then
    invalid_arg "Tstamp.to_int64: uid out of range";
  (t.clock lsl uid_bits) lor t.uid

let to_int64 t = Int64.of_int (to_int t)

let of_int64 v =
  let v = Int64.to_int v in
  { clock = v lsr uid_bits; uid = v land ((1 lsl uid_bits) - 1) }

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let pp fmt t = Format.fprintf fmt "%d.%d" t.clock t.uid
