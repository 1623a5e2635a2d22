open Heron_core

type order_line_input = { li_i : int; li_supply_w : int; li_qty : int }
[@@deriving show, eq]

type req =
  | New_order of {
      w : int;
      d : int;
      c : int;
      lines : order_line_input list;
      entry_d : int;
    }
  | Payment of {
      w : int;
      d : int;
      c_w : int;
      c_d : int;
      c : int;
      amount : int;
      date : int;
    }
  | Order_status of { w : int; d : int; c : int }
  | Delivery of { w : int; carrier : int; date : int }
  | Stock_level of { w : int; d : int; threshold : int }
[@@deriving show, eq]

type resp =
  | R_new_order of { o_id : int; total : int }
  | R_payment of { balance : int }
  | R_order_status of { o_id : int; ol_cnt : int; balance : int }
  | R_delivery of { delivered : int }
  | R_stock_level of { low_stock : int }
  | R_partial
[@@deriving show, eq]

let home_warehouse = function
  | New_order { w; _ }
  | Payment { w; _ }
  | Order_status { w; _ }
  | Delivery { w; _ }
  | Stock_level { w; _ } ->
      w

let is_multi_warehouse = function
  | New_order { w; lines; _ } -> List.exists (fun li -> li.li_supply_w <> w) lines
  | Payment { w; c_w; _ } -> c_w <> w
  | Order_status _ | Delivery _ | Stock_level _ -> false

let merge_responses resps =
  match List.filter (fun (_, r) -> r <> R_partial) resps with
  | (_, r) :: _ -> r
  | [] -> invalid_arg "Tx.merge_responses: no full response"

(* {1 Object id shorthands} *)

let district_oid w d = Oid_codec.(encode (District (w, d)))
let customer_oid w d c = Oid_codec.(encode (Customer (w, d, c)))
let warehouse_oid w = Oid_codec.(encode (Warehouse w))
let item_oid i = Oid_codec.(encode (Item i))
let stock_oid w i = Oid_codec.(encode (Stock (w, i)))
let order_oid w d o = Oid_codec.(encode (Order (w, d, o)))
let new_order_oid w d o = Oid_codec.(encode (New_order (w, d, o)))
let order_line_oid w d o n = Oid_codec.(encode (Order_line (w, d, o, n)))
let history_oid w d u = Oid_codec.(encode (History (w, d, u)))

(* {1 Read sets and plans} *)

let read_set = function
  | New_order { w; d; c; lines; _ } ->
      district_oid w d :: customer_oid w d c
      :: List.concat_map
           (fun li -> [ item_oid li.li_i; stock_oid li.li_supply_w li.li_i ])
           lines
  | Payment { w; d; c_w; c_d; c; _ } ->
      [ district_oid w d; warehouse_oid w; customer_oid c_w c_d c ]
  | Order_status { w; d; c } -> [ customer_oid w d c ]
  | Delivery { w; _ } -> [ district_oid w 1 ]
  | Stock_level { w; d; _ } -> [ district_oid w d ]

(* Partial execution: each partition prefetches only what it needs.
   The home partition of a NewOrder reads everything (including remote
   stock rows, one-sidedly); a supply-only partition reads just its own
   stock rows. *)
let read_plan ~part req =
  match req with
  | New_order { w; lines; _ } ->
      if part = w - 1 then read_set req
      else
        List.filter_map
          (fun li ->
            if li.li_supply_w - 1 = part then Some (stock_oid li.li_supply_w li.li_i)
            else None)
          lines
  | Payment { w; d; c_w; c_d; c; _ } ->
      (if part = w - 1 then [ district_oid w d; warehouse_oid w ] else [])
      @ if part = c_w - 1 then [ customer_oid c_w c_d c ] else []
  | Order_status _ | Delivery _ | Stock_level _ -> read_set req

let write_sketch = function
  | New_order { w; d; c; lines; _ } ->
      district_oid w d :: customer_oid w d c
      :: List.map (fun li -> stock_oid li.li_supply_w li.li_i) lines
  | Payment { w; d; c_w; c_d; c; _ } ->
      [ district_oid w d; customer_oid c_w c_d c ]
  | Order_status { w; d; c } -> [ customer_oid w d c ]
  | Delivery { w; _ } -> [ district_oid w 1 ]
  | Stock_level { w; d; _ } -> [ district_oid w d ]

let req_size = function
  | New_order { lines; _ } -> 40 + (12 * List.length lines)
  | Payment _ -> 56
  | Order_status _ -> 32
  | Delivery _ -> 32
  | Stock_level _ -> 32

let resp_size = function
  | R_new_order _ -> 24
  | R_payment _ -> 16
  | R_order_status _ -> 24
  | R_delivery _ -> 16
  | R_stock_level _ -> 16
  | R_partial -> 8

(* {1 Execution} *)

(* Per-row compute costs beyond (de)serialization, in ns. *)
let cost_row_op = 300
let cost_line = 400

let exec_new_order (ctx : App.ctx) ~w ~d ~c ~lines ~entry_d =
  let read = ctx.App.ctx_read and write = ctx.App.ctx_write in
  let charge = ctx.App.ctx_charge in
  (* Stock updates happen at whichever partition owns each stock row. *)
  List.iter
    (fun li ->
      let soid = stock_oid li.li_supply_w li.li_i in
      if ctx.App.ctx_is_local soid then begin
        let raw = read soid in
        let q = Schema.stock_quantity raw in
        let quantity =
          if q >= li.li_qty + 10 then q - li.li_qty else q - li.li_qty + 91
        in
        write soid
          (Schema.patch_stock raw ~quantity ~ytd_add:li.li_qty ~order_cnt_add:1
             ~remote_cnt_add:(if li.li_supply_w <> w then 1 else 0));
        charge cost_row_op
      end)
    lines;
  if not (ctx.App.ctx_is_local (district_oid w d)) then R_partial
  else begin
    let dist = Schema.decode_district (read (district_oid w d)) in
    let cust = Schema.decode_customer (read (customer_oid w d c)) in
    let o_id = dist.Schema.d_next_o_id in
    write (district_oid w d)
      (Schema.encode_district { dist with Schema.d_next_o_id = o_id + 1 });
    let all_local = List.for_all (fun li -> li.li_supply_w = w) lines in
    let ol_cnt = List.length lines in
    write (order_oid w d o_id)
      (Schema.encode_order
         {
           Schema.o_id;
           o_d_id = d;
           o_w_id = w;
           o_c_id = c;
           o_entry_d = entry_d;
           o_carrier_id = None;
           o_ol_cnt = ol_cnt;
           o_all_local = all_local;
         });
    write (new_order_oid w d o_id)
      (Schema.encode_new_order { Schema.no_o_id = o_id; no_d_id = d; no_w_id = w });
    charge (2 * cost_row_op);
    let total = ref 0 in
    List.iteri
      (fun idx li ->
        let amount = Schema.item_price (read (item_oid li.li_i)) * li.li_qty in
        total := !total + amount;
        write
          (order_line_oid w d o_id (idx + 1))
          (Schema.encode_order_line
             {
               Schema.ol_o_id = o_id;
               ol_d_id = d;
               ol_w_id = w;
               ol_number = idx + 1;
               ol_i_id = li.li_i;
               ol_supply_w_id = li.li_supply_w;
               ol_delivery_d = None;
               ol_quantity = li.li_qty;
               ol_amount = amount;
               ol_dist_info =
                 Schema.stock_dist_info (read (stock_oid li.li_supply_w li.li_i)) ~d;
             });
        charge cost_line)
      lines;
    write (customer_oid w d c)
      (Schema.encode_customer { cust with Schema.c_last_order = o_id });
    let wh = Schema.decode_warehouse (read (warehouse_oid w)) in
    let taxed =
      !total * (10_000 + wh.Schema.w_tax + dist.Schema.d_tax) / 10_000
      * (10_000 - cust.Schema.c_discount) / 10_000
    in
    R_new_order { o_id; total = taxed }
  end

let exec_payment (ctx : App.ctx) ~w ~d ~c_w ~c_d ~c ~amount ~date =
  let read = ctx.App.ctx_read and write = ctx.App.ctx_write in
  let charge = ctx.App.ctx_charge in
  if ctx.App.ctx_is_local (district_oid w d) then begin
    let dist = Schema.decode_district (read (district_oid w d)) in
    write (district_oid w d)
      (Schema.encode_district { dist with Schema.d_ytd = dist.Schema.d_ytd + amount });
    write
      (history_oid w d ctx.App.ctx_tmp.Heron_multicast.Tstamp.uid)
      (Schema.encode_history
         {
           Schema.h_c_id = c;
           h_c_d_id = c_d;
           h_c_w_id = c_w;
           h_d_id = d;
           h_w_id = w;
           h_date = date;
           h_amount = amount;
           h_data = "payment";
         });
    charge (2 * cost_row_op)
  end;
  if ctx.App.ctx_is_local (customer_oid c_w c_d c) then begin
    let cust = Schema.decode_customer (read (customer_oid c_w c_d c)) in
    let balance = cust.Schema.c_balance - amount in
    let c_data =
      if cust.Schema.c_credit = "BC" then
        let extra = Printf.sprintf "|%d-%d-%d-%d-%d" c c_d c_w d amount in
        let s = extra ^ cust.Schema.c_data in
        String.sub s 0 (min (String.length s) 300)
      else cust.Schema.c_data
    in
    write (customer_oid c_w c_d c)
      (Schema.encode_customer
         {
           cust with
           Schema.c_balance = balance;
           c_ytd_payment = cust.Schema.c_ytd_payment + amount;
           c_payment_cnt = cust.Schema.c_payment_cnt + 1;
           c_data;
         });
    charge cost_row_op;
    R_payment { balance }
  end
  else R_partial

let exec_order_status (ctx : App.ctx) ~w ~d ~c =
  let read = ctx.App.ctx_read in
  let cust = Schema.decode_customer (read (customer_oid w d c)) in
  let o_id = cust.Schema.c_last_order in
  if o_id = 0 then
    R_order_status { o_id = 0; ol_cnt = 0; balance = cust.Schema.c_balance }
  else begin
    let ol_cnt = Schema.order_ol_cnt (read (order_oid w d o_id)) in
    for n = 1 to ol_cnt do
      ignore (read (order_line_oid w d o_id n));
      ctx.App.ctx_charge cost_row_op
    done;
    R_order_status { o_id; ol_cnt; balance = cust.Schema.c_balance }
  end

let exec_delivery (ctx : App.ctx) ~scale ~w ~carrier ~date =
  let read = ctx.App.ctx_read and write = ctx.App.ctx_write in
  let delivered = ref 0 in
  for d = 1 to scale.Scale.districts do
    let dist = Schema.decode_district (read (district_oid w d)) in
    if dist.Schema.d_oldest_undelivered < dist.Schema.d_next_o_id then begin
      let o_id = dist.Schema.d_oldest_undelivered in
      let order = Schema.decode_order (read (order_oid w d o_id)) in
      let sum = ref 0 in
      for n = 1 to order.Schema.o_ol_cnt do
        let ol = Schema.decode_order_line (read (order_line_oid w d o_id n)) in
        sum := !sum + ol.Schema.ol_amount;
        write
          (order_line_oid w d o_id n)
          (Schema.encode_order_line { ol with Schema.ol_delivery_d = Some date });
        ctx.App.ctx_charge cost_row_op
      done;
      write (order_oid w d o_id)
        (Schema.encode_order { order with Schema.o_carrier_id = Some carrier });
      let cust = Schema.decode_customer (read (customer_oid w d order.Schema.o_c_id)) in
      write
        (customer_oid w d order.Schema.o_c_id)
        (Schema.encode_customer
           {
             cust with
             Schema.c_balance = cust.Schema.c_balance + !sum;
             c_delivery_cnt = cust.Schema.c_delivery_cnt + 1;
           });
      write (district_oid w d)
        (Schema.encode_district
           { dist with Schema.d_oldest_undelivered = o_id + 1 });
      ctx.App.ctx_charge (2 * cost_row_op);
      incr delivered
    end
  done;
  R_delivery { delivered = !delivered }

let exec_stock_level (ctx : App.ctx) ~w ~d ~threshold =
  let read = ctx.App.ctx_read in
  let dist = Schema.decode_district (read (district_oid w d)) in
  let next = dist.Schema.d_next_o_id in
  let first = max 1 (next - 20) in
  let items = Hashtbl.create 64 in
  for o = first to next - 1 do
    for n = 1 to Schema.order_ol_cnt (read (order_oid w d o)) do
      Hashtbl.replace items (Schema.order_line_item (read (order_line_oid w d o n))) ();
      ctx.App.ctx_charge cost_row_op
    done
  done;
  let low = ref 0 in
  Hashtbl.iter
    (fun i () -> if Schema.stock_quantity (read (stock_oid w i)) < threshold then incr low)
    items;
  R_stock_level { low_stock = !low }

let execute ~scale (ctx : App.ctx) req =
  match req with
  | New_order { w; d; c; lines; entry_d } -> exec_new_order ctx ~w ~d ~c ~lines ~entry_d
  | Payment { w; d; c_w; c_d; c; amount; date } ->
      exec_payment ctx ~w ~d ~c_w ~c_d ~c ~amount ~date
  | Order_status { w; d; c } -> exec_order_status ctx ~w ~d ~c
  | Delivery { w; carrier; date } -> exec_delivery ctx ~scale ~w ~carrier ~date
  | Stock_level { w; d; threshold } -> exec_stock_level ctx ~w ~d ~threshold

let app ~scale ~seed =
  Scale.validate scale;
  {
    App.app_name = "tpcc";
    placement_of =
      (fun oid ->
        match Oid_codec.home_warehouse oid with
        | None -> App.Replicated
        | Some w -> App.Partition (w - 1));
    klass_of =
      (fun oid ->
        if Oid_codec.is_registered oid then Versioned_store.Registered
        else Versioned_store.Local);
    read_set;
    read_plan;
    write_sketch;
    req_size;
    resp_size;
    execute = execute ~scale;
    serial_hint =
      (* Delivery and StockLevel follow index objects to rows chosen
         during execution, so their footprints cannot be derived from
         the sketches; under parallel execution they run alone. *)
      (function
       | Delivery _ | Stock_level _ -> true
       | New_order _ | Payment _ | Order_status _ -> false);
    read_only =
      (function
       | Order_status _ | Stock_level _ -> true
       | New_order _ | Payment _ | Delivery _ -> false);
    catalog = (fun () -> Gen.catalog ~scale ~seed);
  }
