type warehouse = {
  w_id : int;
  w_name : string;
  w_street_1 : string;
  w_street_2 : string;
  w_city : string;
  w_state : string;
  w_zip : string;
  w_tax : int;
  w_ytd : int;
}
[@@deriving show, eq]

type district = {
  d_id : int;
  d_w_id : int;
  d_name : string;
  d_street_1 : string;
  d_street_2 : string;
  d_city : string;
  d_state : string;
  d_zip : string;
  d_tax : int;
  d_ytd : int;
  d_next_o_id : int;
  d_oldest_undelivered : int;
}
[@@deriving show, eq]

type customer = {
  c_id : int;
  c_d_id : int;
  c_w_id : int;
  c_first : string;
  c_middle : string;
  c_last : string;
  c_street_1 : string;
  c_street_2 : string;
  c_city : string;
  c_state : string;
  c_zip : string;
  c_phone : string;
  c_since : int;
  c_credit : string;
  c_credit_lim : int;
  c_discount : int;
  c_balance : int;
  c_ytd_payment : int;
  c_payment_cnt : int;
  c_delivery_cnt : int;
  c_data : string;
  c_last_order : int;
}
[@@deriving show, eq]

type history = {
  h_c_id : int;
  h_c_d_id : int;
  h_c_w_id : int;
  h_d_id : int;
  h_w_id : int;
  h_date : int;
  h_amount : int;
  h_data : string;
}
[@@deriving show, eq]

type order = {
  o_id : int;
  o_d_id : int;
  o_w_id : int;
  o_c_id : int;
  o_entry_d : int;
  o_carrier_id : int option;
  o_ol_cnt : int;
  o_all_local : bool;
}
[@@deriving show, eq]

type new_order = { no_o_id : int; no_d_id : int; no_w_id : int } [@@deriving show, eq]

type order_line = {
  ol_o_id : int;
  ol_d_id : int;
  ol_w_id : int;
  ol_number : int;
  ol_i_id : int;
  ol_supply_w_id : int;
  ol_delivery_d : int option;
  ol_quantity : int;
  ol_amount : int;
  ol_dist_info : string;
}
[@@deriving show, eq]

type item = { i_id : int; i_im_id : int; i_name : string; i_price : int; i_data : string }
[@@deriving show, eq]

type stock = {
  s_i_id : int;
  s_w_id : int;
  s_quantity : int;
  s_dists : string array;
  s_ytd : int;
  s_order_cnt : int;
  s_remote_cnt : int;
  s_data : string;
}
[@@deriving show, eq]

open Codec

let encode_warehouse w =
  let b = writer () in
  w_i32 b w.w_id;
  w_string b w.w_name;
  w_string b w.w_street_1;
  w_string b w.w_street_2;
  w_string b w.w_city;
  w_string b w.w_state;
  w_string b w.w_zip;
  w_i32 b w.w_tax;
  w_i64 b w.w_ytd;
  contents b

let decode_warehouse raw =
  let r = reader raw in
  let w_id = r_i32 r in
  let w_name = r_string r in
  let w_street_1 = r_string r in
  let w_street_2 = r_string r in
  let w_city = r_string r in
  let w_state = r_string r in
  let w_zip = r_string r in
  let w_tax = r_i32 r in
  let w_ytd = r_i64 r in
  expect_end r;
  { w_id; w_name; w_street_1; w_street_2; w_city; w_state; w_zip; w_tax; w_ytd }

let encode_district d =
  let b = writer () in
  w_i32 b d.d_id;
  w_i32 b d.d_w_id;
  w_string b d.d_name;
  w_string b d.d_street_1;
  w_string b d.d_street_2;
  w_string b d.d_city;
  w_string b d.d_state;
  w_string b d.d_zip;
  w_i32 b d.d_tax;
  w_i64 b d.d_ytd;
  w_i32 b d.d_next_o_id;
  w_i32 b d.d_oldest_undelivered;
  contents b

let decode_district raw =
  let r = reader raw in
  let d_id = r_i32 r in
  let d_w_id = r_i32 r in
  let d_name = r_string r in
  let d_street_1 = r_string r in
  let d_street_2 = r_string r in
  let d_city = r_string r in
  let d_state = r_string r in
  let d_zip = r_string r in
  let d_tax = r_i32 r in
  let d_ytd = r_i64 r in
  let d_next_o_id = r_i32 r in
  let d_oldest_undelivered = r_i32 r in
  expect_end r;
  {
    d_id; d_w_id; d_name; d_street_1; d_street_2; d_city; d_state; d_zip; d_tax;
    d_ytd; d_next_o_id; d_oldest_undelivered;
  }

let encode_customer c =
  let b = writer () in
  w_i32 b c.c_id;
  w_i32 b c.c_d_id;
  w_i32 b c.c_w_id;
  w_string b c.c_first;
  w_string b c.c_middle;
  w_string b c.c_last;
  w_string b c.c_street_1;
  w_string b c.c_street_2;
  w_string b c.c_city;
  w_string b c.c_state;
  w_string b c.c_zip;
  w_string b c.c_phone;
  w_i64 b c.c_since;
  w_string b c.c_credit;
  w_i64 b c.c_credit_lim;
  w_i32 b c.c_discount;
  w_i64 b c.c_balance;
  w_i64 b c.c_ytd_payment;
  w_i32 b c.c_payment_cnt;
  w_i32 b c.c_delivery_cnt;
  w_string b c.c_data;
  w_i32 b c.c_last_order;
  contents b

let decode_customer raw =
  let r = reader raw in
  let c_id = r_i32 r in
  let c_d_id = r_i32 r in
  let c_w_id = r_i32 r in
  let c_first = r_string r in
  let c_middle = r_string r in
  let c_last = r_string r in
  let c_street_1 = r_string r in
  let c_street_2 = r_string r in
  let c_city = r_string r in
  let c_state = r_string r in
  let c_zip = r_string r in
  let c_phone = r_string r in
  let c_since = r_i64 r in
  let c_credit = r_string r in
  let c_credit_lim = r_i64 r in
  let c_discount = r_i32 r in
  let c_balance = r_i64 r in
  let c_ytd_payment = r_i64 r in
  let c_payment_cnt = r_i32 r in
  let c_delivery_cnt = r_i32 r in
  let c_data = r_string r in
  let c_last_order = r_i32 r in
  expect_end r;
  {
    c_id; c_d_id; c_w_id; c_first; c_middle; c_last; c_street_1; c_street_2;
    c_city; c_state; c_zip; c_phone; c_since; c_credit; c_credit_lim; c_discount;
    c_balance; c_ytd_payment; c_payment_cnt; c_delivery_cnt; c_data; c_last_order;
  }

let encode_history h =
  let b = writer () in
  w_i32 b h.h_c_id;
  w_i32 b h.h_c_d_id;
  w_i32 b h.h_c_w_id;
  w_i32 b h.h_d_id;
  w_i32 b h.h_w_id;
  w_i64 b h.h_date;
  w_i64 b h.h_amount;
  w_string b h.h_data;
  contents b

let decode_history raw =
  let r = reader raw in
  let h_c_id = r_i32 r in
  let h_c_d_id = r_i32 r in
  let h_c_w_id = r_i32 r in
  let h_d_id = r_i32 r in
  let h_w_id = r_i32 r in
  let h_date = r_i64 r in
  let h_amount = r_i64 r in
  let h_data = r_string r in
  expect_end r;
  { h_c_id; h_c_d_id; h_c_w_id; h_d_id; h_w_id; h_date; h_amount; h_data }

let encode_order o =
  let b = writer () in
  w_i32 b o.o_id;
  w_i32 b o.o_d_id;
  w_i32 b o.o_w_id;
  w_i32 b o.o_c_id;
  w_i64 b o.o_entry_d;
  w_opt_i32 b o.o_carrier_id;
  w_u8 b o.o_ol_cnt;
  w_bool b o.o_all_local;
  contents b

let decode_order raw =
  let r = reader raw in
  let o_id = r_i32 r in
  let o_d_id = r_i32 r in
  let o_w_id = r_i32 r in
  let o_c_id = r_i32 r in
  let o_entry_d = r_i64 r in
  let o_carrier_id = r_opt_i32 r in
  let o_ol_cnt = r_u8 r in
  let o_all_local = r_bool r in
  expect_end r;
  { o_id; o_d_id; o_w_id; o_c_id; o_entry_d; o_carrier_id; o_ol_cnt; o_all_local }

let encode_new_order n =
  let b = writer () in
  w_i32 b n.no_o_id;
  w_i32 b n.no_d_id;
  w_i32 b n.no_w_id;
  contents b

let decode_new_order raw =
  let r = reader raw in
  let no_o_id = r_i32 r in
  let no_d_id = r_i32 r in
  let no_w_id = r_i32 r in
  expect_end r;
  { no_o_id; no_d_id; no_w_id }

let encode_order_line ol =
  let b = writer () in
  w_i32 b ol.ol_o_id;
  w_i32 b ol.ol_d_id;
  w_i32 b ol.ol_w_id;
  w_u8 b ol.ol_number;
  w_i32 b ol.ol_i_id;
  w_i32 b ol.ol_supply_w_id;
  w_opt_i32 b ol.ol_delivery_d;
  w_u8 b ol.ol_quantity;
  w_i64 b ol.ol_amount;
  w_string b ol.ol_dist_info;
  contents b

let decode_order_line raw =
  let r = reader raw in
  let ol_o_id = r_i32 r in
  let ol_d_id = r_i32 r in
  let ol_w_id = r_i32 r in
  let ol_number = r_u8 r in
  let ol_i_id = r_i32 r in
  let ol_supply_w_id = r_i32 r in
  let ol_delivery_d = r_opt_i32 r in
  let ol_quantity = r_u8 r in
  let ol_amount = r_i64 r in
  let ol_dist_info = r_string r in
  expect_end r;
  {
    ol_o_id; ol_d_id; ol_w_id; ol_number; ol_i_id; ol_supply_w_id; ol_delivery_d;
    ol_quantity; ol_amount; ol_dist_info;
  }

let encode_item i =
  let b = writer () in
  w_i32 b i.i_id;
  w_i32 b i.i_im_id;
  w_string b i.i_name;
  w_i64 b i.i_price;
  w_string b i.i_data;
  contents b

let decode_item raw =
  let r = reader raw in
  let i_id = r_i32 r in
  let i_im_id = r_i32 r in
  let i_name = r_string r in
  let i_price = r_i64 r in
  let i_data = r_string r in
  expect_end r;
  { i_id; i_im_id; i_name; i_price; i_data }

let encode_stock s =
  let b = writer () in
  w_i32 b s.s_i_id;
  w_i32 b s.s_w_id;
  w_i32 b s.s_quantity;
  w_u8 b (Array.length s.s_dists);
  Array.iter (w_string b) s.s_dists;
  w_i64 b s.s_ytd;
  w_i32 b s.s_order_cnt;
  w_i32 b s.s_remote_cnt;
  w_string b s.s_data;
  contents b

let decode_stock raw =
  let r = reader raw in
  let s_i_id = r_i32 r in
  let s_w_id = r_i32 r in
  let s_quantity = r_i32 r in
  let n = r_u8 r in
  let s_dists = Array.init n (fun _ -> r_string r) in
  let s_ytd = r_i64 r in
  let s_order_cnt = r_i32 r in
  let s_remote_cnt = r_i32 r in
  let s_data = r_string r in
  expect_end r;
  { s_i_id; s_w_id; s_quantity; s_dists; s_ytd; s_order_cnt; s_remote_cnt; s_data }

(* {1 Field readers and patches on encoded rows}

   Offsets follow the encoders above: a reader decodes one field where
   its decoder would find it, skipping any length-prefixed string in
   front of it. *)

let i32_at raw off = Int32.to_int (Bytes.get_int32_le raw off)
let i64_at raw off = Int64.to_int (Bytes.get_int64_le raw off)

(* The offset just past [n] strings stored from [off] on. *)
let rec skip_strings raw off n =
  if n = 0 then off else skip_strings raw (off + 2 + Bytes.get_uint16_le raw off) (n - 1)

(* Stock: s_i_id and s_w_id (i32 each), s_quantity (i32) at 8, the
   district-info count (u8) at 12, the district infos from 13, then
   s_ytd (i64), s_order_cnt and s_remote_cnt (i32 each). *)
let stock_quantity raw = i32_at raw 8

let stock_dist_info raw ~d =
  let off = skip_strings raw 13 ((d - 1) mod Bytes.get_uint8 raw 12) in
  Bytes.sub_string raw (off + 2) (Bytes.get_uint16_le raw off)

let patch_stock raw ~quantity ~ytd_add ~order_cnt_add ~remote_cnt_add =
  let ytd = skip_strings raw 13 (Bytes.get_uint8 raw 12) in
  let out = Bytes.copy raw in
  Bytes.set_int32_le out 8 (Int32.of_int quantity);
  Bytes.set_int64_le out ytd (Int64.of_int (i64_at raw ytd + ytd_add));
  Bytes.set_int32_le out (ytd + 8) (Int32.of_int (i32_at raw (ytd + 8) + order_cnt_add));
  Bytes.set_int32_le out (ytd + 12)
    (Int32.of_int (i32_at raw (ytd + 12) + remote_cnt_add));
  out

(* Order line: three i32 ids and ol_number (u8) come before ol_i_id. *)
let order_line_item raw = i32_at raw 13

(* Order: four i32 ids and o_entry_d (i64), then o_carrier_id as a
   flag byte plus an i32 when set, then o_ol_cnt (u8). *)
let order_ol_cnt raw = Bytes.get_uint8 raw (if Bytes.get_uint8 raw 24 = 1 then 29 else 25)

(* Item: i_id and i_im_id (i32 each), i_name, then i_price (i64). *)
let item_price raw = i64_at raw (skip_strings raw 8 1)

(* Capacities sized to the encoders above with worst-case string
   lengths used by the generator. *)
let stock_cap = 400
let customer_cap = 900
