(* Tests for heron_tpcc: codecs, oid packing, data generation, the
   workload mix, and — most importantly — differential testing of the
   full Heron deployment against the sequential reference executor. *)

open Heron_sim
open Heron_rdma
open Heron_core
open Heron_tpcc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Codec} *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.w_u8 w 200;
  Codec.w_u16 w 60_000;
  Codec.w_i32 w (-123_456);
  Codec.w_i64 w (-9_876_543_210);
  Codec.w_bool w true;
  Codec.w_string w "hello world";
  Codec.w_opt_i32 w None;
  Codec.w_opt_i32 w (Some 42);
  let r = Codec.reader (Codec.contents w) in
  check_int "u8" 200 (Codec.r_u8 r);
  check_int "u16" 60_000 (Codec.r_u16 r);
  check_int "i32" (-123_456) (Codec.r_i32 r);
  check_int "i64" (-9_876_543_210) (Codec.r_i64 r);
  check_bool "bool" true (Codec.r_bool r);
  Alcotest.(check string) "string" "hello world" (Codec.r_string r);
  check_bool "none" true (Codec.r_opt_i32 r = None);
  check_bool "some" true (Codec.r_opt_i32 r = Some 42);
  Codec.expect_end r

let test_codec_trailing_bytes () =
  let w = Codec.writer () in
  Codec.w_i32 w 1;
  Codec.w_i32 w 2;
  let r = Codec.reader (Codec.contents w) in
  ignore (Codec.r_i32 r);
  check_bool "trailing detected" true
    (try
       Codec.expect_end r;
       false
     with Failure _ -> true)

(* {1 Schema row roundtrips} *)

let test_schema_roundtrips () =
  let w = Gen.make_warehouse 3 in
  check_bool "warehouse" true
    (Schema.equal_warehouse w (Schema.decode_warehouse (Schema.encode_warehouse w)));
  let d = Gen.make_district ~w:2 ~d:5 ~next_o_id:31 in
  check_bool "district" true
    (Schema.equal_district d (Schema.decode_district (Schema.encode_district d)));
  let c = Gen.make_customer ~w:1 ~d:2 ~c:17 ~last_order:9 in
  check_bool "customer" true
    (Schema.equal_customer c (Schema.decode_customer (Schema.encode_customer c)));
  let i = Gen.make_item 123 in
  check_bool "item" true (Schema.equal_item i (Schema.decode_item (Schema.encode_item i)));
  let s = Gen.make_stock ~w:4 ~i:55 in
  check_bool "stock" true
    (Schema.equal_stock s (Schema.decode_stock (Schema.encode_stock s)));
  let o =
    {
      Schema.o_id = 7; o_d_id = 1; o_w_id = 2; o_c_id = 3; o_entry_d = 99;
      o_carrier_id = None; o_ol_cnt = 11; o_all_local = false;
    }
  in
  check_bool "order" true (Schema.equal_order o (Schema.decode_order (Schema.encode_order o)));
  let ol =
    {
      Schema.ol_o_id = 7; ol_d_id = 1; ol_w_id = 2; ol_number = 4; ol_i_id = 9;
      ol_supply_w_id = 2; ol_delivery_d = Some 123; ol_quantity = 5;
      ol_amount = 4_200; ol_dist_info = String.make 24 'x';
    }
  in
  check_bool "order_line" true
    (Schema.equal_order_line ol (Schema.decode_order_line (Schema.encode_order_line ol)));
  let h =
    {
      Schema.h_c_id = 1; h_c_d_id = 2; h_c_w_id = 3; h_d_id = 4; h_w_id = 5;
      h_date = 6; h_amount = 7; h_data = "payment";
    }
  in
  check_bool "history" true
    (Schema.equal_history h (Schema.decode_history (Schema.encode_history h)));
  let n = { Schema.no_o_id = 1; no_d_id = 2; no_w_id = 3 } in
  check_bool "new_order" true
    (Schema.equal_new_order n (Schema.decode_new_order (Schema.encode_new_order n)))

let test_schema_sizes_fit_caps () =
  (* Serialized rows of the registered tables must fit their cells. *)
  let s = Gen.make_stock ~w:1 ~i:1 in
  check_bool "stock fits" true (Bytes.length (Schema.encode_stock s) <= Schema.stock_cap);
  let c = Gen.make_customer ~w:1 ~d:1 ~c:1 ~last_order:0 in
  let c = { c with Schema.c_data = String.make 300 'z' } in
  check_bool "customer fits" true
    (Bytes.length (Schema.encode_customer c) <= Schema.customer_cap);
  (* Realistic magnitudes (paper: stock ~310B serialized). *)
  check_bool "stock is a few hundred bytes" true
    (Bytes.length (Schema.encode_stock s) > 250)

(* {1 Field readers and patches}

   Transactions read single fields out of encoded rows and patch stock
   rows in place. The differential tests cannot catch a wrong offset,
   because the reference executor runs the same transaction code, so
   each reader is held to its decoder and the patch to decode, update,
   encode, on random rows. *)

let field_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 40) in
  let i32 = int_range (-(1 lsl 31)) ((1 lsl 31) - 1) in
  let u8 = int_range 0 255 in
  let stock =
    let* s_i_id = i32 and* s_w_id = i32 and* s_quantity = i32 in
    let* s_dists = array_size (int_range 1 12) str in
    let* s_ytd = int and* s_order_cnt = i32 and* s_remote_cnt = i32 and* s_data = str in
    return
      { Schema.s_i_id; s_w_id; s_quantity; s_dists; s_ytd; s_order_cnt; s_remote_cnt; s_data }
  in
  let order =
    let* o_id = i32 and* o_d_id = i32 and* o_w_id = i32 and* o_c_id = i32 in
    let* o_entry_d = int and* o_carrier_id = opt i32 and* o_ol_cnt = u8 in
    let* o_all_local = bool in
    return
      { Schema.o_id; o_d_id; o_w_id; o_c_id; o_entry_d; o_carrier_id; o_ol_cnt; o_all_local }
  in
  let order_line =
    let* ol_o_id = i32 and* ol_d_id = i32 and* ol_w_id = i32 and* ol_number = u8 in
    let* ol_i_id = i32 and* ol_supply_w_id = i32 and* ol_delivery_d = opt i32 in
    let* ol_quantity = u8 and* ol_amount = int and* ol_dist_info = str in
    return
      {
        Schema.ol_o_id; ol_d_id; ol_w_id; ol_number; ol_i_id; ol_supply_w_id;
        ol_delivery_d; ol_quantity; ol_amount; ol_dist_info;
      }
  in
  let item =
    let* i_id = i32 and* i_im_id = i32 and* i_name = str and* i_price = int in
    let* i_data = str in
    return { Schema.i_id; i_im_id; i_name; i_price; i_data }
  in
  let* s = stock and* o = order and* ol = order_line and* i = item in
  let* d = int_range 1 40 and* quantity = i32 in
  let* deltas = triple int i32 i32 in
  return (s, o, ol, i, d, quantity, deltas)

let field_readers_prop =
  QCheck.Test.make ~name:"field readers and stock patch agree with the codecs" ~count:500
    (QCheck.make field_gen)
    (fun (s, o, ol, i, d, quantity, (ytd_add, order_cnt_add, remote_cnt_add)) ->
      let raw = Schema.encode_stock s in
      let copy = Bytes.copy raw in
      let s' = Schema.decode_stock raw in
      let patched = Schema.patch_stock raw ~quantity ~ytd_add ~order_cnt_add ~remote_cnt_add in
      let expected =
        Schema.encode_stock
          {
            s' with
            Schema.s_quantity = quantity;
            s_ytd = s'.Schema.s_ytd + ytd_add;
            s_order_cnt = s'.Schema.s_order_cnt + order_cnt_add;
            s_remote_cnt = s'.Schema.s_remote_cnt + remote_cnt_add;
          }
      in
      Schema.stock_quantity raw = s'.Schema.s_quantity
      && Schema.stock_dist_info raw ~d
         = s'.Schema.s_dists.((d - 1) mod Array.length s'.Schema.s_dists)
      && Bytes.equal patched expected
      && Bytes.equal raw copy
      && Schema.order_ol_cnt (Schema.encode_order o)
         = (Schema.decode_order (Schema.encode_order o)).Schema.o_ol_cnt
      && Schema.order_line_item (Schema.encode_order_line ol)
         = (Schema.decode_order_line (Schema.encode_order_line ol)).Schema.ol_i_id
      && Schema.item_price (Schema.encode_item i)
         = (Schema.decode_item (Schema.encode_item i)).Schema.i_price)

(* {1 Oid_codec} *)

let oid_key_gen =
  QCheck.Gen.(
    let* tag = int_range 0 8 in
    let* w = int_range 1 4_000 in
    let* d = int_range 1 200 in
    let* a = int_range 0 ((1 lsl 30) - 1) in
    let* b = int_range 0 255 in
    return
      (match tag with
      | 0 -> Oid_codec.Warehouse w
      | 1 -> Oid_codec.District (w, d)
      | 2 -> Oid_codec.Customer (w, d, a)
      | 3 -> Oid_codec.History (w, d, a)
      | 4 -> Oid_codec.Order (w, d, a)
      | 5 -> Oid_codec.New_order (w, d, a)
      | 6 -> Oid_codec.Order_line (w, d, a, b)
      | 7 -> Oid_codec.Item a
      | _ -> Oid_codec.Stock (w, a)))

let oid_roundtrip_prop =
  QCheck.Test.make ~name:"oid encode/decode roundtrip" ~count:500
    (QCheck.make oid_key_gen)
    (fun key -> Oid_codec.decode (Oid_codec.encode key) = key)

let test_oid_placement () =
  check_bool "warehouse replicated" true
    (Oid_codec.home_warehouse (Oid_codec.encode (Oid_codec.Warehouse 3)) = None);
  check_bool "item replicated" true
    (Oid_codec.home_warehouse (Oid_codec.encode (Oid_codec.Item 9)) = None);
  check_bool "stock homed" true
    (Oid_codec.home_warehouse (Oid_codec.encode (Oid_codec.Stock (4, 9))) = Some 4);
  check_bool "stock registered" true
    (Oid_codec.is_registered (Oid_codec.encode (Oid_codec.Stock (4, 9))));
  check_bool "customer registered" true
    (Oid_codec.is_registered (Oid_codec.encode (Oid_codec.Customer (1, 2, 3))));
  check_bool "district local" false
    (Oid_codec.is_registered (Oid_codec.encode (Oid_codec.District (1, 2))))

let test_oid_range_checks () =
  check_bool "oversized warehouse rejected" true
    (try
       ignore (Oid_codec.encode (Oid_codec.Warehouse 5_000));
       false
     with Invalid_argument _ -> true)

(* {1 Gen} *)

let test_catalog_counts () =
  let scale = Scale.tiny ~warehouses:2 in
  let specs = Gen.catalog ~scale ~seed:1 in
  let count pred = List.length (List.filter pred specs) in
  let tagged tag s =
    match Oid_codec.decode s.App.spec_oid with
    | Oid_codec.Warehouse _ -> tag = `W
    | Oid_codec.District _ -> tag = `D
    | Oid_codec.Customer _ -> tag = `C
    | Oid_codec.Stock _ -> tag = `S
    | Oid_codec.Item _ -> tag = `I
    | Oid_codec.Order _ -> tag = `O
    | Oid_codec.Order_line _ -> tag = `OL
    | Oid_codec.History _ | Oid_codec.New_order _ -> tag = `Other
  in
  check_int "warehouses" 2 (count (tagged `W));
  check_int "districts" (2 * 2) (count (tagged `D));
  check_int "customers" (2 * 2 * 6) (count (tagged `C));
  check_int "stock" (2 * 40) (count (tagged `S));
  check_int "items" 40 (count (tagged `I));
  check_int "orders" (2 * 2 * 4) (count (tagged `O));
  check_int "order lines" (2 * 2 * 4 * 5) (count (tagged `OL));
  (* Determinism. *)
  check_bool "deterministic" true (Gen.catalog ~scale ~seed:1 = specs);
  check_bool "seeded" true (Gen.catalog ~scale ~seed:2 <> specs)

let test_nurand_range () =
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 1_000 do
    let v = Gen.nurand rng ~a:1023 ~x:1 ~y:3000 in
    if v < 1 || v > 3000 then Alcotest.failf "nurand out of range: %d" v
  done

(* {1 Workload} *)

let test_workload_mix () =
  let scale = Scale.bench ~warehouses:4 in
  let rng = Random.State.make [| 8 |] in
  let n = 10_000 in
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let multi = ref 0 in
  for _ = 1 to n do
    let req = Workload.gen Workload.standard ~scale ~rng ~home_w:1 in
    if Tx.is_multi_warehouse req then incr multi;
    match req with
    | Tx.New_order _ -> bump `N
    | Tx.Payment _ -> bump `P
    | Tx.Order_status _ -> bump `O
    | Tx.Delivery _ -> bump `D
    | Tx.Stock_level _ -> bump `S
  done;
  let pct k = 100 * Option.value ~default:0 (Hashtbl.find_opt counts k) / n in
  check_bool "new order ~45%" true (abs (pct `N - 45) <= 3);
  check_bool "payment ~43%" true (abs (pct `P - 43) <= 3);
  check_bool "order status ~4%" true (abs (pct `O - 4) <= 2);
  (* Standard TPCC: ~10% of NewOrders multi-warehouse (1% per line,
     5-15 lines) + 15% of Payments: overall ~11% of transactions. *)
  let multi_pct = 100. *. float_of_int !multi /. float_of_int n in
  check_bool "roughly 10% multi-partition" true (multi_pct > 5. && multi_pct < 18.)

let test_workload_local_only () =
  let scale = Scale.bench ~warehouses:4 in
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 2_000 do
    let req = Workload.gen Workload.local_only ~scale ~rng ~home_w:2 in
    if Tx.is_multi_warehouse req then Alcotest.fail "local profile produced multi-warehouse"
  done

let test_workload_pinned () =
  let scale = Scale.bench ~warehouses:8 in
  let rng = Random.State.make [| 10 |] in
  for _ = 1 to 200 do
    match Workload.gen_new_order_pinned ~scale ~rng ~warehouses:[ 2; 5; 7 ] with
    | Tx.New_order { w; lines; _ } ->
        check_int "home" 2 w;
        let touched =
          List.sort_uniq compare (List.map (fun li -> li.Tx.li_supply_w) lines)
        in
        Alcotest.(check (list int)) "exact warehouses" [ 2; 5; 7 ] touched
    | _ -> Alcotest.fail "expected NewOrder"
  done

(* {1 Ref_exec sanity} *)

let test_ref_new_order () =
  let scale = Scale.tiny ~warehouses:1 in
  let r = Ref_exec.create ~scale ~seed:1 in
  let next_o_id () =
    match Ref_exec.value r (Oid_codec.encode (Oid_codec.District (1, 1))) with
    | Some raw -> (Schema.decode_district raw).Schema.d_next_o_id
    | None -> Alcotest.fail "district missing"
  in
  let before = next_o_id () in
  let resp =
    Ref_exec.apply r
      (Tx.New_order
         {
           w = 1;
           d = 1;
           c = 2;
           lines = [ { Tx.li_i = 1; li_supply_w = 1; li_qty = 3 } ];
           entry_d = 7;
         })
  in
  (match resp with
  | Tx.R_new_order { o_id; total } ->
      check_int "order id" before o_id;
      check_bool "positive total" true (total > 0)
  | other -> Alcotest.failf "unexpected %s" (Tx.show_resp other));
  check_int "next_o_id bumped" (before + 1) (next_o_id ());
  (* The stock row was updated. *)
  match Ref_exec.value r (Oid_codec.encode (Oid_codec.Stock (1, 1))) with
  | Some raw ->
      let s = Schema.decode_stock raw in
      check_int "stock ytd" 3 s.Schema.s_ytd;
      check_int "order cnt" 1 s.Schema.s_order_cnt
  | None -> Alcotest.fail "stock missing"

let test_ref_payment_and_delivery () =
  let scale = Scale.tiny ~warehouses:1 in
  let r = Ref_exec.create ~scale ~seed:1 in
  (match
     Ref_exec.apply r
       (Tx.Payment { w = 1; d = 1; c_w = 1; c_d = 1; c = 1; amount = 500; date = 3 })
   with
  | Tx.R_payment { balance } -> check_int "balance debited" (-1_500) balance
  | other -> Alcotest.failf "unexpected %s" (Tx.show_resp other));
  (* All init orders are delivered, so a Delivery finds nothing until a
     NewOrder arrives. *)
  (match Ref_exec.apply r (Tx.Delivery { w = 1; carrier = 2; date = 5 }) with
  | Tx.R_delivery { delivered } -> check_int "nothing to deliver" 0 delivered
  | other -> Alcotest.failf "unexpected %s" (Tx.show_resp other));
  ignore
    (Ref_exec.apply r
       (Tx.New_order
          {
            w = 1;
            d = 2;
            c = 1;
            lines = [ { Tx.li_i = 2; li_supply_w = 1; li_qty = 1 } ];
            entry_d = 1;
          }));
  match Ref_exec.apply r (Tx.Delivery { w = 1; carrier = 2; date = 5 }) with
  | Tx.R_delivery { delivered } -> check_int "one delivered" 1 delivered
  | other -> Alcotest.failf "unexpected %s" (Tx.show_resp other)

let test_ref_stock_level () =
  let scale = Scale.tiny ~warehouses:1 in
  let r = Ref_exec.create ~scale ~seed:1 in
  match Ref_exec.apply r (Tx.Stock_level { w = 1; d = 1; threshold = 200 }) with
  | Tx.R_stock_level { low_stock } -> check_bool "every item is low at 200" true (low_stock > 0)
  | other -> Alcotest.failf "unexpected %s" (Tx.show_resp other)

(* {1 Differential test: Heron vs the sequential reference}

   A single closed-loop client means Heron's total order equals the
   submission order; running the same sequence through Ref_exec must
   give identical responses and an identical final database. *)

let run_differential ~seed ~warehouses ~n_requests =
  let scale = Scale.tiny ~warehouses in
  let eng = Engine.create ~seed () in
  let cfg = Config.default ~partitions:warehouses ~replicas:3 in
  let app = Tx.app ~scale ~seed:1 in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  let reference = Ref_exec.create ~scale ~seed:1 in
  let rng = Random.State.make [| seed; 77 |] in
  let reqs =
    List.init n_requests (fun i ->
        let home_w = (i mod warehouses) + 1 in
        Workload.gen Workload.standard ~scale ~rng ~home_w)
  in
  let heron_resps = ref [] in
  let client = System.new_client_node sys ~name:"diff-client" in
  Fabric.spawn_on client (fun () ->
      List.iter
        (fun req ->
          let resps = System.submit sys ~from:client req in
          heron_resps := Tx.merge_responses resps :: !heron_resps)
        reqs);
  Engine.run_until eng (Time_ns.s 10);
  let heron_resps = List.rev !heron_resps in
  check_int "all requests answered" n_requests (List.length heron_resps);
  let ref_resps = List.map (Ref_exec.apply reference) reqs in
  List.iteri
    (fun i (h, r) ->
      if not (Tx.equal_resp h r) then
        Alcotest.failf "response %d differs: heron=%s ref=%s" i (Tx.show_resp h)
          (Tx.show_resp r))
    (List.combine heron_resps ref_resps);
  (* Final state: every object in the reference must match the value
     stored by the partition that owns it (and all its replicas). *)
  List.iter
    (fun oid ->
      let expected = Option.get (Ref_exec.value reference oid) in
      let parts =
        match Oid_codec.home_warehouse oid with
        | Some w -> [ w - 1 ]
        | None -> List.init warehouses Fun.id
      in
      List.iter
        (fun part ->
          for idx = 0 to 2 do
            let store = Replica.store (System.replica sys ~part ~idx) in
            match Versioned_store.mem store oid with
            | false -> Alcotest.failf "oid %d missing at partition %d" (Oid.to_int oid) part
            | true ->
                let got, _ = Versioned_store.get store oid in
                if not (Bytes.equal got expected) then
                  Alcotest.failf "oid %d differs at partition %d replica %d"
                    (Oid.to_int oid) part idx
          done)
        parts)
    (Ref_exec.oids reference)

let test_differential_single_wh () = run_differential ~seed:5 ~warehouses:1 ~n_requests:40
let test_differential_two_wh () = run_differential ~seed:6 ~warehouses:2 ~n_requests:60
let test_differential_four_wh () = run_differential ~seed:7 ~warehouses:4 ~n_requests:60

let differential_prop =
  QCheck.Test.make ~name:"heron matches sequential reference (random seeds)" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      run_differential ~seed ~warehouses:2 ~n_requests:25;
      true)

(* {1 Concurrent invariants} *)

let concurrent_invariants ~pipeline () =
  (* Multiple clients; afterwards: per-district order-id accounting and
     replica convergence must hold despite concurrency. *)
  let warehouses = 2 in
  let scale = Scale.tiny ~warehouses in
  let eng = Engine.create ~seed:3 () in
  let cfg = { (Config.default ~partitions:warehouses ~replicas:3) with Config.pipeline } in
  let app = Tx.app ~scale ~seed:1 in
  let sys = System.create eng ~cfg ~app in
  System.start sys;
  let new_orders = ref 0 in
  let rng = Random.State.make [| 31 |] in
  let reqs_per_client = 25 in
  for c = 0 to 3 do
    let reqs =
      List.init reqs_per_client (fun _ ->
          Workload.gen Workload.standard ~scale ~rng ~home_w:((c mod warehouses) + 1))
    in
    let client = System.new_client_node sys ~name:(Printf.sprintf "c%d" c) in
    Fabric.spawn_on client (fun () ->
        List.iter
          (fun req ->
            match Tx.merge_responses (System.submit sys ~from:client req) with
            | Tx.R_new_order _ -> incr new_orders
            | _ -> ())
          reqs)
  done;
  Engine.run_until eng (Time_ns.s 10);
  (* next_o_id advanced exactly once per successful NewOrder. *)
  let total_orders = ref 0 in
  for w = 1 to warehouses do
    for d = 1 to scale.Scale.districts do
      let store = Replica.store (System.replica sys ~part:(w - 1) ~idx:0) in
      let raw, _ = Versioned_store.get store (Oid_codec.encode (Oid_codec.District (w, d))) in
      let dist = Schema.decode_district raw in
      total_orders := !total_orders + dist.Schema.d_next_o_id - 1 - scale.Scale.init_orders_per_district
    done
  done;
  check_int "orders accounted" !new_orders !total_orders;
  (* Replicas of each partition agree on every registered row. *)
  Array.iteri
    (fun p row ->
      let reference = Replica.store row.(0) in
      Array.iteri
        (fun i r ->
          if i > 0 then
            List.iter
              (fun oid ->
                let v0, _ = Versioned_store.get reference oid in
                let vi, _ = Versioned_store.get (Replica.store r) oid in
                if not (Bytes.equal v0 vi) then
                  Alcotest.failf "partition %d replica %d diverged" p i)
              (Versioned_store.registered_oids reference))
        row)
    (System.replicas sys)

let tc name f = Alcotest.test_case name `Quick f
let stc name f = Alcotest.test_case name `Slow f

let suite =
  [
    ( "tpcc.codec",
      [ tc "roundtrip" test_codec_roundtrip; tc "trailing bytes" test_codec_trailing_bytes ] );
    ( "tpcc.schema",
      [
        tc "row roundtrips" test_schema_roundtrips;
        tc "sizes fit caps" test_schema_sizes_fit_caps;
        Qc.test field_readers_prop;
      ] );
    ( "tpcc.oid",
      [
        Qc.test oid_roundtrip_prop;
        tc "placement" test_oid_placement;
        tc "range checks" test_oid_range_checks;
      ] );
    ( "tpcc.gen",
      [ tc "catalog counts" test_catalog_counts; tc "nurand range" test_nurand_range ] );
    ( "tpcc.workload",
      [
        tc "standard mix" test_workload_mix;
        tc "local only" test_workload_local_only;
        tc "pinned new order" test_workload_pinned;
      ] );
    ( "tpcc.ref",
      [
        tc "new order" test_ref_new_order;
        tc "payment and delivery" test_ref_payment_and_delivery;
        tc "stock level" test_ref_stock_level;
      ] );
    ( "tpcc.differential",
      [
        tc "1 warehouse" test_differential_single_wh;
        tc "2 warehouses" test_differential_two_wh;
        tc "4 warehouses" test_differential_four_wh;
        Qc.test differential_prop;
      ] );
    ( "tpcc.concurrent",
      [
        stc "invariants under concurrency"
          (concurrent_invariants ~pipeline:Config.default_pipeline);
        stc "invariants with parallel execution"
          (concurrent_invariants
             ~pipeline:
               {
                 Config.default_pipeline with
                 Config.pipe_enabled = true;
                 pipe_executors = 4;
               });
      ] );
  ]

let () = Alcotest.run "heron_tpcc" suite
