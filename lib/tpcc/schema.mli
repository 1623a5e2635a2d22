(** TPCC row types and their byte encodings.

    All nine TPC-C tables, with representative column sets and realistic
    serialized sizes (a stock row is ~310 B, a customer row ~700 B, as
    in the paper's prototype). Monetary amounts are integer cents to
    keep replica execution bit-deterministic. Every row type has
    [encode_x : x -> bytes] and [decode_x : bytes -> x] with
    [decode_x (encode_x r) = r]. *)

type warehouse = {
  w_id : int;
  w_name : string;
  w_street_1 : string;
  w_street_2 : string;
  w_city : string;
  w_state : string;
  w_zip : string;
  w_tax : int;  (** basis points *)
  w_ytd : int;  (** cents *)
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
      (** head of the new-order queue; delivery consumes from here
          (index object, replaces a table scan) *)
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
  c_discount : int;  (** basis points *)
  c_balance : int;
  c_ytd_payment : int;
  c_payment_cnt : int;
  c_delivery_cnt : int;
  c_data : string;
  c_last_order : int;  (** most recent order id, 0 if none (index) *)
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
  s_dists : string array;  (** 10 district infos of 24 chars *)
  s_ytd : int;
  s_order_cnt : int;
  s_remote_cnt : int;
  s_data : string;
}
[@@deriving show, eq]

val encode_warehouse : warehouse -> bytes
val decode_warehouse : bytes -> warehouse
val encode_district : district -> bytes
val decode_district : bytes -> district
val encode_customer : customer -> bytes
val decode_customer : bytes -> customer
val encode_history : history -> bytes
val decode_history : bytes -> history
val encode_order : order -> bytes
val decode_order : bytes -> order
val encode_new_order : new_order -> bytes
val decode_new_order : bytes -> new_order
val encode_order_line : order_line -> bytes
val decode_order_line : bytes -> order_line
val encode_item : item -> bytes
val decode_item : bytes -> item
val encode_stock : stock -> bytes
val decode_stock : bytes -> stock

(** {1 Field readers and patches}

    Each reads or rewrites the fields the transactions use directly in
    an encoded row, without decoding the rest of it; on a row produced
    by the matching encoder each agrees with the decoder. *)

val stock_quantity : bytes -> int
(** [(decode_stock raw).s_quantity]. *)

val stock_dist_info : bytes -> d:int -> string
(** The district info for district [d]:
    [s.s_dists.((d - 1) mod Array.length s.s_dists)] where
    [s = decode_stock raw]. *)

val patch_stock :
  bytes ->
  quantity:int ->
  ytd_add:int ->
  order_cnt_add:int ->
  remote_cnt_add:int ->
  bytes
(** A fresh row byte-identical to [encode_stock] of [decode_stock raw]
    with [s_quantity] set to [quantity] and the three deltas added to
    [s_ytd], [s_order_cnt] and [s_remote_cnt]. [raw] is not modified. *)

val order_line_item : bytes -> int
(** [(decode_order_line raw).ol_i_id]. *)

val order_ol_cnt : bytes -> int
(** [(decode_order raw).o_ol_cnt]. *)

val item_price : bytes -> int
(** [(decode_item raw).i_price]. *)

val stock_cap : int
(** Registered-cell capacity for a stock row. *)

val customer_cap : int
(** Registered-cell capacity for a customer row. *)
