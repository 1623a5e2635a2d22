open Heron_core

let rand_range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let nurand rng ~a ~x ~y =
  let c = 123 in
  ((rand_range rng 0 a lor rand_range rng x y) + c) mod (y - x + 1) + x

(* Deterministic filler text: cheap, incompressible enough, fixed
   length. *)
let filler tag len =
  let s = Printf.sprintf "%s-" tag in
  let b = Buffer.create len in
  while Buffer.length b < len do
    Buffer.add_string b s;
    Buffer.add_string b (string_of_int (Buffer.length b mod 97))
  done;
  Buffer.sub b 0 len

(* Every row of a table carries the same filler, so each is built once. *)
let street_1 = filler "st1" 20
let street_2 = filler "st2" 20
let city = filler "city" 20
let c_data = filler "cdata" 300
let i_data = filler "idata" 40
let s_dists = Array.init 10 (fun d -> filler (Printf.sprintf "sd%d" d) 24)
let s_data = filler "sdata" 40
let ol_dist_info = filler "ol" 24

let make_warehouse w =
  {
    Schema.w_id = w;
    w_name = Printf.sprintf "wh-%04d" w;
    w_street_1 = street_1;
    w_street_2 = street_2;
    w_city = city;
    w_state = "CH";
    w_zip = "123456789";
    w_tax = 1000 + (w mod 10) * 25;
    w_ytd = 30_000_000;
  }

let make_district ~w ~d ~next_o_id =
  {
    Schema.d_id = d;
    d_w_id = w;
    d_name = Printf.sprintf "d-%02d-%04d" d w;
    d_street_1 = street_1;
    d_street_2 = street_2;
    d_city = city;
    d_state = "CH";
    d_zip = "987654321";
    d_tax = 800 + (d * 15);
    d_ytd = 3_000_000;
    d_next_o_id = next_o_id;
    d_oldest_undelivered = next_o_id;
  }

let make_customer ~w ~d ~c ~last_order =
  {
    Schema.c_id = c;
    c_d_id = d;
    c_w_id = w;
    c_first = Printf.sprintf "first-%05d" c;
    c_middle = "OE";
    c_last = Printf.sprintf "LAST%06d" (c mod 1000);
    c_street_1 = street_1;
    c_street_2 = street_2;
    c_city = city;
    c_state = "CH";
    c_zip = "135792468";
    c_phone = "0041123456789012";
    c_since = 0;
    c_credit = (if c mod 10 = 0 then "BC" else "GC");
    c_credit_lim = 5_000_000;
    c_discount = (c * 7) mod 5000;
    c_balance = -1_000;
    c_ytd_payment = 1_000;
    c_payment_cnt = 1;
    c_delivery_cnt = 0;
    c_data;
    c_last_order = last_order;
  }

let make_item i =
  {
    Schema.i_id = i;
    i_im_id = (i * 13 mod 10_000) + 1;
    i_name = Printf.sprintf "item-%06d" i;
    i_price = 100 + (i * 37 mod 9_900);
    i_data;
  }

let make_stock ~w ~i =
  {
    Schema.s_i_id = i;
    s_w_id = w;
    s_quantity = 50 + (i mod 50);
    s_dists;
    s_ytd = 0;
    s_order_cnt = 0;
    s_remote_cnt = 0;
    s_data;
  }

let spec ~key ~placement ~klass ~cap ~init =
  {
    App.spec_oid = Oid_codec.encode key;
    spec_placement = placement;
    spec_klass = klass;
    spec_cap = cap;
    spec_init = init;
  }

let catalog ~scale ~seed =
  Scale.validate scale;
  let rng = Random.State.make [| seed; 0x54504343 |] in
  let specs = ref [] in
  let add s = specs := s :: !specs in
  let local key init =
    add (spec ~key ~placement:(App.Partition 0) ~klass:Versioned_store.Local ~cap:0 ~init)
  in
  ignore local;
  (* Replicated, read-only tables: Warehouse and Item. *)
  for w = 1 to scale.Scale.warehouses do
    add
      (spec ~key:(Oid_codec.Warehouse w) ~placement:App.Replicated
         ~klass:Versioned_store.Local ~cap:0
         ~init:(Schema.encode_warehouse (make_warehouse w)))
  done;
  for i = 1 to scale.Scale.items do
    add
      (spec ~key:(Oid_codec.Item i) ~placement:App.Replicated
         ~klass:Versioned_store.Local ~cap:0
         ~init:(Schema.encode_item (make_item i)))
  done;
  (* Per-warehouse tables; partition = warehouse - 1. *)
  for w = 1 to scale.Scale.warehouses do
    let part = App.Partition (w - 1) in
    for i = 1 to scale.Scale.items do
      add
        (spec ~key:(Oid_codec.Stock (w, i)) ~placement:part
           ~klass:Versioned_store.Registered ~cap:Schema.stock_cap
           ~init:(Schema.encode_stock (make_stock ~w ~i)))
    done;
    for d = 1 to scale.Scale.districts do
      let n_orders = scale.Scale.init_orders_per_district in
      add
        (spec ~key:(Oid_codec.District (w, d)) ~placement:part
           ~klass:Versioned_store.Local ~cap:0
           ~init:(Schema.encode_district (make_district ~w ~d ~next_o_id:(n_orders + 1))));
      (* Customers; remember each one's most recent initial order. *)
      let last_order = Array.make (scale.Scale.customers_per_district + 1) 0 in
      for o = 1 to n_orders do
        let c = ((o - 1) mod scale.Scale.customers_per_district) + 1 in
        last_order.(c) <- o
      done;
      for c = 1 to scale.Scale.customers_per_district do
        add
          (spec ~key:(Oid_codec.Customer (w, d, c)) ~placement:part
             ~klass:Versioned_store.Registered ~cap:Schema.customer_cap
             ~init:(Schema.encode_customer (make_customer ~w ~d ~c ~last_order:last_order.(c))))
      done;
      (* Initial (delivered) orders with 5 lines each. *)
      for o = 1 to n_orders do
        let c = ((o - 1) mod scale.Scale.customers_per_district) + 1 in
        let ol_cnt = 5 in
        add
          (spec ~key:(Oid_codec.Order (w, d, o)) ~placement:part
             ~klass:Versioned_store.Local ~cap:0
             ~init:
               (Schema.encode_order
                  {
                    Schema.o_id = o;
                    o_d_id = d;
                    o_w_id = w;
                    o_c_id = c;
                    o_entry_d = 0;
                    o_carrier_id = Some (rand_range rng 1 10);
                    o_ol_cnt = ol_cnt;
                    o_all_local = true;
                  }));
        for n = 1 to ol_cnt do
          let i = rand_range rng 1 scale.Scale.items in
          add
            (spec ~key:(Oid_codec.Order_line (w, d, o, n)) ~placement:part
               ~klass:Versioned_store.Local ~cap:0
               ~init:
                 (Schema.encode_order_line
                    {
                      Schema.ol_o_id = o;
                      ol_d_id = d;
                      ol_w_id = w;
                      ol_number = n;
                      ol_i_id = i;
                      ol_supply_w_id = w;
                      ol_delivery_d = Some 0;
                      ol_quantity = rand_range rng 1 10;
                      ol_amount = rand_range rng 100 9_999;
                      ol_dist_info;
                    }))
        done
      done
    done
  done;
  List.rev !specs
