open Heron_rdma
open Heron_multicast

type klass = Registered | Local

type reg_obj = { ro_off : int; ro_cap : int }

(* A local object's two versions sit inline in its table entry. Until
   the first [set] both versions share one copy of the initial value;
   [set] replaces a version's bytes and never writes into them. *)
type entry =
  | Reg of reg_obj
  | Loc of {
      mutable a_val : bytes;
      mutable a_tmp : Tstamp.t;
      mutable b_val : bytes;
      mutable b_tmp : Tstamp.t;
    }

type t = {
  st_node : Fabric.node;
  region : Memory.region;
  objects : (Oid.t, entry) Hashtbl.t;
  mutable next_off : int;
  mutable miss_counter : Heron_obs.Metrics.counter option;
}

let create node ~region_size =
  {
    st_node = node;
    region = Fabric.alloc_region node ~size:region_size;
    objects = Hashtbl.create 1024;
    next_off = 0;
    miss_counter = None;
  }

let attach_metrics t reg =
  t.miss_counter <- Some (Heron_obs.Metrics.counter reg "store.dual_version_miss")

let count_miss t =
  match t.miss_counter with
  | Some c -> Heron_obs.Metrics.incr c
  | None -> ()

let node t = t.st_node
let mem t oid = Hashtbl.mem t.objects oid

let klass_of t oid =
  match Hashtbl.find t.objects oid with Reg _ -> Registered | Loc _ -> Local

(* {1 Registered cell layout} *)

let cell_len_of_cap cap = 32 + (2 * cap)

(* Offsets of the two version slots within a cell. *)
let slot_off ro = function
  | `A -> ro.ro_off
  | `B -> ro.ro_off + 16 + ro.ro_cap

let slot_tmp t ro slot = Tstamp.of_int64 (Memory.get_i64 t.region ~off:(slot_off ro slot))

let slot_value t ro slot =
  let off = slot_off ro slot in
  let len = Int64.to_int (Memory.get_i64 t.region ~off:(off + 8)) in
  Memory.read_bytes t.region ~off:(off + 16) ~len

let slot_write t ro slot value ~tmp =
  let off = slot_off ro slot in
  Memory.set_i64 t.region ~off (Tstamp.to_int64 tmp);
  Memory.set_i64 t.region ~off:(off + 8) (Int64.of_int (Bytes.length value));
  Memory.write_bytes t.region ~off:(off + 16) value

(* {1 Registration} *)

let local_entry value ~tmp =
  let v = Bytes.copy value in
  Loc { a_val = v; a_tmp = tmp; b_val = v; b_tmp = tmp }

let register t oid ~klass ~cap ~init =
  if Hashtbl.mem t.objects oid then
    invalid_arg "Versioned_store.register: oid already registered";
  match klass with
  | Local -> Hashtbl.replace t.objects oid (local_entry init ~tmp:Tstamp.zero)
  | Registered ->
      if Bytes.length init > cap then
        invalid_arg "Versioned_store.register: init exceeds capacity";
      let len = cell_len_of_cap cap in
      if t.next_off + len > Memory.region_size t.region then
        invalid_arg "Versioned_store.register: region out of space";
      let ro = { ro_off = t.next_off; ro_cap = cap } in
      t.next_off <- t.next_off + len;
      Hashtbl.replace t.objects oid (Reg ro);
      slot_write t ro `A init ~tmp:Tstamp.zero;
      slot_write t ro `B init ~tmp:Tstamp.zero

let insert_local t oid value ~tmp =
  if Hashtbl.mem t.objects oid then
    invalid_arg "Versioned_store.insert_local: oid already registered";
  Hashtbl.replace t.objects oid (local_entry value ~tmp)

(* {1 Reads} *)

(* The freshest of the admitted versions; [a_newer] when A's stamp is
   at least B's. *)
let pick_slot ~a_newer ~a_ok ~b_ok =
  match (a_ok, b_ok) with
  | true, true -> if a_newer then Some `A else Some `B
  | true, false -> Some `A
  | false, true -> Some `B
  | false, false -> None

let stamp t e slot =
  match (e, slot) with
  | Reg ro, _ -> slot_tmp t ro slot
  | Loc l, `A -> l.a_tmp
  | Loc l, `B -> l.b_tmp

let value t e slot =
  match (e, slot) with
  | Reg ro, _ -> slot_value t ro slot
  | Loc l, `A -> l.a_val
  | Loc l, `B -> l.b_val

(* Read both stamps, then copy only the chosen version's bytes. *)
let read t oid ok =
  let e = Hashtbl.find t.objects oid in
  let ta = stamp t e `A and tb = stamp t e `B in
  match pick_slot ~a_newer:Tstamp.(tb <= ta) ~a_ok:(ok ta) ~b_ok:(ok tb) with
  | Some `A -> Some (value t e `A, ta)
  | Some `B -> Some (value t e `B, tb)
  | None -> None

let get t oid = Option.get (read t oid (fun _ -> true))

let pick_version ((va, ta), (vb, tb)) ~bound =
  match
    pick_slot ~a_newer:Tstamp.(tb <= ta) ~a_ok:Tstamp.(ta < bound)
      ~b_ok:Tstamp.(tb < bound)
  with
  | Some `A -> Some (va, ta)
  | Some `B -> Some (vb, tb)
  | None -> None

type lookup = Absent | Too_new | Found of bytes * klass

(* One table lookup, and a registered cell's stamps compared packed,
   as stored. *)
let lookup_before t oid ~bound =
  match Hashtbl.find t.objects oid with
  | exception Not_found -> Absent
  | Reg ro -> (
      let b = Tstamp.to_int bound in
      let ta = Memory.get_int t.region ~off:(slot_off ro `A)
      and tb = Memory.get_int t.region ~off:(slot_off ro `B) in
      match pick_slot ~a_newer:(tb <= ta) ~a_ok:(ta < b) ~b_ok:(tb < b) with
      | Some slot -> Found (slot_value t ro slot, Registered)
      | None ->
          count_miss t;
          Too_new)
  | Loc l -> (
      match
        pick_slot ~a_newer:Tstamp.(l.b_tmp <= l.a_tmp) ~a_ok:Tstamp.(l.a_tmp < bound)
          ~b_ok:Tstamp.(l.b_tmp < bound)
      with
      | Some `A -> Found (l.a_val, Local)
      | Some `B -> Found (l.b_val, Local)
      | None ->
          count_miss t;
          Too_new)

(* No miss counted here: the donor snapshot legitimately skips objects
   created beyond its bound. *)
let get_at_most t oid ~bound = read t oid (fun ts -> Tstamp.(ts <= bound))

(* {1 Writes} *)

(* The version a write at [tmp] overwrites: its own (idempotent
   re-execution), else the older one. *)
let target_slot ta tb ~tmp =
  if Tstamp.equal ta tmp then `A
  else if Tstamp.equal tb tmp then `B
  else if Tstamp.(ta <= tb) then `A
  else `B

let set t oid value ~tmp =
  match Hashtbl.find_opt t.objects oid with
  | None -> insert_local t oid value ~tmp
  | Some (Reg ro) ->
      if Bytes.length value > ro.ro_cap then
        invalid_arg "Versioned_store.set: value exceeds capacity";
      slot_write t ro (target_slot (slot_tmp t ro `A) (slot_tmp t ro `B) ~tmp) value ~tmp
  | Some (Loc l) -> (
      let value = Bytes.copy value in
      match target_slot l.a_tmp l.b_tmp ~tmp with
      | `A ->
          l.a_val <- value;
          l.a_tmp <- tmp
      | `B ->
          l.b_val <- value;
          l.b_tmp <- tmp)

(* {1 Remote cell access} *)

let find_reg t oid =
  match Hashtbl.find t.objects oid with
  | Reg ro -> ro
  | Loc _ -> raise Not_found

let cell_addr t oid =
  let ro = find_reg t oid in
  Memory.addr ~node:(Fabric.node_id t.st_node) t.region ~off:ro.ro_off

let cell_len t oid = cell_len_of_cap (find_reg t oid).ro_cap

let decode_cell raw =
  let total = Bytes.length raw in
  if total < 32 || (total - 32) mod 2 <> 0 then
    invalid_arg "Versioned_store.decode_cell: bad cell size";
  let cap = (total - 32) / 2 in
  let slot off =
    let tmp = Tstamp.of_int64 (Bytes.get_int64_le raw off) in
    let len = Int64.to_int (Bytes.get_int64_le raw (off + 8)) in
    (Bytes.sub raw (off + 16) len, tmp)
  in
  (slot 0, slot (16 + cap))

let truncate_raw_cell raw ~bound =
  let (va, ta), (vb, tb) = decode_cell raw in
  let a_ok = Tstamp.(ta < bound) and b_ok = Tstamp.(tb < bound) in
  if a_ok && b_ok then Some raw
  else
    match
      if a_ok then Some (va, ta) else if b_ok then Some (vb, tb) else None
    with
    | None -> None
    | Some (v, tmp) ->
        let total = Bytes.length raw in
        let cap = (total - 32) / 2 in
        let out = Bytes.make total '\000' in
        let put off =
          Bytes.set_int64_le out off (Tstamp.to_int64 tmp);
          Bytes.set_int64_le out (off + 8) (Int64.of_int (Bytes.length v));
          Bytes.blit v 0 out (off + 16) (Bytes.length v)
        in
        put 0;
        put (16 + cap);
        Some out

let encode_cell_of t oid =
  let ro = find_reg t oid in
  Memory.read_bytes t.region ~off:ro.ro_off ~len:(cell_len_of_cap ro.ro_cap)

let write_raw_cell t oid raw =
  let ro = find_reg t oid in
  if Bytes.length raw <> cell_len_of_cap ro.ro_cap then
    invalid_arg "Versioned_store.write_raw_cell: size mismatch";
  Memory.write_bytes t.region ~off:ro.ro_off raw

let value_size t oid = Bytes.length (fst (get t oid))

let filter_oids t pred =
  Hashtbl.fold (fun oid e acc -> if pred e then oid :: acc else acc) t.objects []
  |> List.sort compare

let registered_oids t = filter_oids t (function Reg _ -> true | Loc _ -> false)
let local_oids t = filter_oids t (function Loc _ -> true | Reg _ -> false)
