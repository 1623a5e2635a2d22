(* Tests for heron_stats: exact sample statistics and table
   rendering. *)

open Heron_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let of_list xs =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) xs;
  s

(* {1 Sample_set} *)

let test_empty () =
  let s = Sample_set.create () in
  check_bool "empty" true (Sample_set.is_empty s);
  check_float "mean" 0. (Sample_set.mean s);
  check_float "stddev" 0. (Sample_set.stddev s);
  Alcotest.(check (list (pair int (float 1e-9)))) "cdf" [] (Sample_set.cdf s);
  Alcotest.check_raises "min" (Invalid_argument "Sample_set.min_value: empty")
    (fun () -> ignore (Sample_set.min_value s));
  Alcotest.check_raises "percentile" (Invalid_argument "Sample_set.percentile: empty")
    (fun () -> ignore (Sample_set.percentile s 50.))

let test_basic_stats () =
  let s = of_list [ 4; 1; 3; 2; 5 ] in
  check_int "count" 5 (Sample_set.count s);
  check_float "mean" 3. (Sample_set.mean s);
  check_int "min" 1 (Sample_set.min_value s);
  check_int "max" 5 (Sample_set.max_value s);
  check_float "stddev" (sqrt 2.) (Sample_set.stddev s);
  check_int "median" 3 (Sample_set.median s)

let test_percentiles () =
  let s = of_list (List.init 100 (fun i -> i + 1)) in
  check_int "p1" 1 (Sample_set.percentile s 1.);
  check_int "p50" 50 (Sample_set.percentile s 50.);
  check_int "p99" 99 (Sample_set.percentile s 99.);
  check_int "p100" 100 (Sample_set.percentile s 100.);
  check_int "p0" 1 (Sample_set.percentile s 0.);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sample_set.percentile: out of range") (fun () ->
      ignore (Sample_set.percentile s 101.))

let test_add_after_query () =
  (* Queries sort internally; later adds must still be seen. *)
  let s = of_list [ 5; 1 ] in
  check_int "max before" 5 (Sample_set.max_value s);
  Sample_set.add s 10;
  check_int "max after" 10 (Sample_set.max_value s);
  check_int "count" 3 (Sample_set.count s)

let test_cdf () =
  let s = of_list [ 10; 20; 30; 40 ] in
  let cdf = Sample_set.cdf ~points:4 s in
  Alcotest.(check (list (pair int (float 1e-9))))
    "cdf points"
    [ (10, 0.25); (20, 0.5); (30, 0.75); (40, 1.) ]
    cdf

let test_merge () =
  let a = of_list [ 1; 2 ] and b = of_list [ 3 ] in
  let m = Sample_set.merge a b in
  check_int "merged count" 3 (Sample_set.count m);
  check_float "merged mean" 2. (Sample_set.mean m);
  check_int "originals untouched" 2 (Sample_set.count a)

let percentile_prop =
  QCheck.Test.make ~name:"percentile matches a naive nearest-rank computation"
    ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (int_bound 1000)) (int_bound 100))
    (fun (xs, p) ->
      let s = of_list xs in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank = int_of_float (ceil (float_of_int p /. 100. *. float_of_int n)) in
      let idx = max 0 (min (n - 1) (rank - 1)) in
      Sample_set.percentile s (float_of_int p) = List.nth sorted idx)

let mean_prop =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
    (fun xs ->
      let s = of_list xs in
      let m = Sample_set.mean s in
      float_of_int (Sample_set.min_value s) <= m
      && m <= float_of_int (Sample_set.max_value s))

(* {1 Table} *)

let test_table_render () =
  let t = Table.make ~title:"demo" ~headers:[ "col"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-cell"; "22" ];
  let s = Table.render t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "has title" true (contains s "== demo ==");
  Alcotest.(check (list (list string)))
    "rows" [ [ "a"; "1" ]; [ "long-cell"; "22" ] ] (Table.rows t)

let test_table_padding_and_overflow () =
  let t = Table.make ~title:"t" ~headers:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  Alcotest.(check (list (list string))) "padded" [ [ "x"; ""; "" ] ] (Table.rows t);
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2"; "3"; "4" ])

let test_cells () =
  Alcotest.(check string) "us" "35.4" (Table.cell_us 35_400);
  Alcotest.(check string) "ms" "109.40" (Table.cell_ms 109_400_000);
  Alcotest.(check string) "pct" "8.0%" (Table.cell_pct 0.08);
  Alcotest.(check string) "float" "1.50" (Table.cell_float 1.5);
  Alcotest.(check string) "int" "42" (Table.cell_int 42)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "stats.sample_set",
      [
        tc "empty" test_empty;
        tc "basic stats" test_basic_stats;
        tc "percentiles" test_percentiles;
        tc "add after query" test_add_after_query;
        tc "cdf" test_cdf;
        tc "merge" test_merge;
        Qc.test percentile_prop;
        Qc.test mean_prop;
      ] );
    ( "stats.table",
      [
        tc "render" test_table_render;
        tc "padding and overflow" test_table_padding_and_overflow;
        tc "cell formatting" test_cells;
      ] );
  ]

let () = Alcotest.run "heron_stats" suite
