open Heron_core

type key =
  | Warehouse of int
  | District of int * int
  | Customer of int * int * int
  | History of int * int * int
  | Order of int * int * int
  | New_order of int * int * int
  | Order_line of int * int * int * int
  | Item of int
  | Stock of int * int

let pack ~tag ~w ~d ~a ~b =
  if tag < 1 || tag > 9 then invalid_arg "Oid_codec: bad tag";
  if w < 0 || w >= 1 lsl 12 then invalid_arg "Oid_codec: warehouse out of range";
  if d < 0 || d >= 1 lsl 8 then invalid_arg "Oid_codec: district out of range";
  if a < 0 || a >= 1 lsl 30 then invalid_arg "Oid_codec: field out of range";
  if b < 0 || b >= 1 lsl 8 then invalid_arg "Oid_codec: line out of range";
  Oid.of_int
    ((((((((tag lsl 12) lor w) lsl 8) lor d) lsl 30) lor a) lsl 8) lor b)

let encode = function
  | Warehouse w -> pack ~tag:1 ~w ~d:0 ~a:0 ~b:0
  | District (w, d) -> pack ~tag:2 ~w ~d ~a:0 ~b:0
  | Customer (w, d, c) -> pack ~tag:3 ~w ~d ~a:c ~b:0
  | History (w, d, u) -> pack ~tag:4 ~w ~d ~a:u ~b:0
  | Order (w, d, o) -> pack ~tag:5 ~w ~d ~a:o ~b:0
  | New_order (w, d, o) -> pack ~tag:6 ~w ~d ~a:o ~b:0
  | Order_line (w, d, o, n) -> pack ~tag:7 ~w ~d ~a:o ~b:n
  | Item i -> pack ~tag:8 ~w:0 ~d:0 ~a:i ~b:0
  | Stock (w, i) -> pack ~tag:9 ~w ~d:0 ~a:i ~b:0

(* The bit layout read back: [tag] and [warehouse] run on every object
   access, so they read their bits in place instead of building a
   [key]. *)
let tag oid =
  match Oid.to_int oid lsr 58 with
  | tag when tag >= 1 && tag <= 9 -> tag
  | _ -> invalid_arg "Oid_codec.decode: bad tag"

let warehouse oid = (Oid.to_int oid lsr 46) land 0xfff

let decode oid =
  let v = Oid.to_int oid in
  let b = v land 0xff in
  let a = (v lsr 8) land ((1 lsl 30) - 1) in
  let d = (v lsr 38) land 0xff in
  let w = warehouse oid in
  match tag oid with
  | 1 -> Warehouse w
  | 2 -> District (w, d)
  | 3 -> Customer (w, d, a)
  | 4 -> History (w, d, a)
  | 5 -> Order (w, d, a)
  | 6 -> New_order (w, d, a)
  | 7 -> Order_line (w, d, a, b)
  | 8 -> Item a
  | _ -> Stock (w, a)

let home_warehouse oid =
  match tag oid with 1 | 8 -> None | _ -> Some (warehouse oid)

let is_registered oid =
  match tag oid with 3 | 9 -> true | _ -> false
