(* {1 Log-bucketed histogram core}

   16 sub-buckets per power of two (HdrHistogram-style): values 0..15
   map to themselves, a value with highest bit k >= 4 maps to
   (k-4)*16 + (v >> (k-4)), giving a relative bucket width of 1/16. *)

let sub_bits = 4
let sub = 1 lsl sub_bits
let n_buckets = 944  (* covers every non-negative OCaml int *)

let bucket_of v =
  let v = max 0 v in
  if v < sub then v
  else begin
    let k = ref sub_bits and x = ref (v lsr sub_bits) in
    while !x > 1 do
      incr k;
      x := !x lsr 1
    done;
    (((!k - sub_bits) + 1) * sub) + (v lsr (!k - sub_bits)) - sub
  end

let bucket_upper i =
  if i < sub then i
  else begin
    let j = i - sub in
    let k = sub_bits + (j / sub) and s = j mod sub in
    ((sub + s + 1) lsl (k - sub_bits)) - 1
  end

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  mutable h_buckets : int array;
      (* grown to cover the largest bucket observed: most series keep a
         few hundred buckets, and one never observed keeps none *)
}

let make_histogram () = { h_count = 0; h_sum = 0; h_min = 0; h_max = 0; h_buckets = [||] }

let observe h v =
  let v = max 0 v in
  if h.h_count = 0 || v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let i = bucket_of v in
  let n = Array.length h.h_buckets in
  if i >= n then begin
    let grown = Array.make (min n_buckets (i + 1 + sub)) 0 in
    Array.blit h.h_buckets 0 grown 0 n;
    h.h_buckets <- grown
  end;
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_max h = h.h_max

(* Nearest-rank over (upper_bound, count) pairs in bucket order; must
   agree with Sample_set.percentile's rank arithmetic. *)
let percentile_of_buckets buckets ~count p =
  if p < 0. || p > 100. then invalid_arg "Metrics.hist_percentile: out of range";
  if count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int count))) in
    let rec walk cum = function
      | [] -> 0
      | [ (ub, _) ] -> ub
      | (ub, c) :: rest -> if cum + c >= rank then ub else walk (cum + c) rest
    in
    walk 0 buckets
  end

(* Only buckets between the min's and the max's can be non-empty. *)
let nonzero_buckets h =
  let acc = ref [] in
  if h.h_count > 0 then
    for i = bucket_of h.h_max downto bucket_of h.h_min do
      if h.h_buckets.(i) > 0 then acc := (bucket_upper i, h.h_buckets.(i)) :: !acc
    done;
  !acc

let hist_percentile h p = percentile_of_buckets (nonzero_buckets h) ~count:h.h_count p

(* {1 Counters and gauges} *)

type counter = { mutable c_val : int }

let incr c = c.c_val <- c.c_val + 1
let add c n = c.c_val <- c.c_val + n
let counter_value c = c.c_val

type gauge = { mutable g_val : int }

let set_gauge g v = g.g_val <- v
let gauge_value g = g.g_val

(* {1 Registry} *)

type metric = C of counter | G of gauge | H of histogram

type t = {
  tbl : (string * (string * string) list, metric) Hashtbl.t;
  mutable sorted : ((string * (string * string) list) * metric) list option;
      (* the series in snapshot order; dropped when one is added, so
         repeated snapshots of a large registry sort it once *)
}

let create () = { tbl = Hashtbl.create 64; sorted = None }

let norm_labels labels = List.sort compare labels

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let get_or_create t name labels ~make ~extract ~want =
  let key = (name, norm_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> (
      match extract m with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s is already a %s, not a %s" name
               (kind_name m) want))
  | None ->
      let x, m = make () in
      Hashtbl.replace t.tbl key m;
      t.sorted <- None;
      x

let counter t ?(labels = []) name =
  get_or_create t name labels ~want:"counter"
    ~make:(fun () ->
      let c = { c_val = 0 } in
      (c, C c))
    ~extract:(function C c -> Some c | G _ | H _ -> None)

let gauge t ?(labels = []) name =
  get_or_create t name labels ~want:"gauge"
    ~make:(fun () ->
      let g = { g_val = 0 } in
      (g, G g))
    ~extract:(function G g -> Some g | C _ | H _ -> None)

let histogram t ?(labels = []) name =
  get_or_create t name labels ~want:"histogram"
    ~make:(fun () ->
      let h = make_histogram () in
      (h, H h))
    ~extract:(function H h -> Some h | C _ | G _ -> None)

(* {1 Snapshots} *)

type hist_snap = {
  hs_count : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
  hs_buckets : (int * int) list;
}

type value_snap = Counter_v of int | Gauge_v of int | Histogram_v of hist_snap

type entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_value : value_snap;
}

type snapshot = entry list

(* [hs] over [count] observations in [buckets], percentiles re-derived. *)
let with_buckets hs ~count buckets =
  let p = percentile_of_buckets buckets ~count in
  { hs with hs_count = count; hs_p50 = p 50.; hs_p90 = p 90.; hs_p99 = p 99.; hs_buckets = buckets }

let snap_histogram h =
  with_buckets
    { hs_count = 0; hs_sum = h.h_sum; hs_min = h.h_min; hs_max = h.h_max;
      hs_p50 = 0; hs_p90 = 0; hs_p99 = 0; hs_buckets = [] }
    ~count:h.h_count (nonzero_buckets h)

let snapshot t =
  let sorted =
    match t.sorted with
    | Some l -> l
    | None ->
        let l =
          List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq t.tbl))
        in
        t.sorted <- Some l;
        l
  in
  List.map
    (fun ((name, labels), m) ->
      let v =
        match m with
        | C c -> Counter_v c.c_val
        | G g -> Gauge_v g.g_val
        | H h -> Histogram_v (snap_histogram h)
      in
      { e_name = name; e_labels = labels; e_value = v })
    sorted

(* Bucket lists are sorted by upper bound: combine two bucket by bucket
   with [f] (an absent bucket counts 0), keeping the positive counts. *)
let rec zip_buckets f a b =
  let cons u c rest = if c > 0 then (u, c) :: rest else rest in
  match (a, b) with
  | [], [] -> []
  | (u, c) :: r, [] -> cons u (f c 0) (zip_buckets f r [])
  | [], (u, c) :: r -> cons u (f 0 c) (zip_buckets f [] r)
  | (ua, ca) :: ra, (ub, cb) :: rb ->
      if ua = ub then cons ua (f ca cb) (zip_buckets f ra rb)
      else if ua < ub then cons ua (f ca 0) (zip_buckets f ra b)
      else cons ub (f 0 cb) (zip_buckets f a rb)

let diff ~before ~after =
  let old = Hashtbl.create (List.length before) in
  List.iter (fun e -> Hashtbl.replace old (e.e_name, e.e_labels) e.e_value) before;
  List.map
    (fun e ->
      let prev = Hashtbl.find_opt old (e.e_name, e.e_labels) in
      let value =
        match (e.e_value, prev) with
        | Counter_v v, Some (Counter_v p) -> Counter_v (v - p)
        | Histogram_v hs, Some (Histogram_v ps) ->
            Histogram_v
              (with_buckets
                 { hs with hs_sum = hs.hs_sum - ps.hs_sum }
                 ~count:(hs.hs_count - ps.hs_count)
                 (zip_buckets ( - ) hs.hs_buckets ps.hs_buckets))
        | v, _ -> v
      in
      { e with e_value = value })
    after

let merge_hist a b =
  let hs_min =
    if a.hs_count = 0 then b.hs_min
    else if b.hs_count = 0 then a.hs_min
    else min a.hs_min b.hs_min
  in
  with_buckets
    { a with hs_sum = a.hs_sum + b.hs_sum; hs_min; hs_max = max a.hs_max b.hs_max }
    ~count:(a.hs_count + b.hs_count)
    (zip_buckets ( + ) a.hs_buckets b.hs_buckets)

let find snap ?(labels = []) name =
  let merge a b =
    match (a, b) with
    | Counter_v x, Counter_v y -> Counter_v (x + y)
    | Histogram_v x, Histogram_v y -> Histogram_v (merge_hist x y)
    | _ -> invalid_arg (Printf.sprintf "Metrics.find: %s matches several gauges or kinds" name)
  in
  List.fold_left
    (fun acc e ->
      if e.e_name = name && List.for_all (fun kv -> List.mem kv e.e_labels) labels then
        Some (match acc with None -> e.e_value | Some v -> merge v e.e_value)
      else acc)
    None snap

(* {1 Export} *)

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let to_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let id = e.e_name ^ label_string e.e_labels in
      (match e.e_value with
      | Counter_v v -> Buffer.add_string buf (Printf.sprintf "%s %d" id v)
      | Gauge_v v -> Buffer.add_string buf (Printf.sprintf "%s %d" id v)
      | Histogram_v h ->
          Buffer.add_string buf
            (Printf.sprintf "%s count=%d sum=%d min=%d p50=%d p90=%d p99=%d max=%d" id
               h.hs_count h.hs_sum h.hs_min h.hs_p50 h.hs_p90 h.hs_p99 h.hs_max));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf

let to_json snap =
  let entry e =
    let base =
      [
        ("name", Json.String e.e_name);
        ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.e_labels));
      ]
    in
    match e.e_value with
    | Counter_v v ->
        Json.Obj (base @ [ ("type", Json.String "counter"); ("value", Json.Int v) ])
    | Gauge_v v ->
        Json.Obj (base @ [ ("type", Json.String "gauge"); ("value", Json.Int v) ])
    | Histogram_v h ->
        Json.Obj
          (base
          @ [
              ("type", Json.String "histogram");
              ("count", Json.Int h.hs_count);
              ("sum", Json.Int h.hs_sum);
              ("min", Json.Int h.hs_min);
              ("max", Json.Int h.hs_max);
              ("p50", Json.Int h.hs_p50);
              ("p90", Json.Int h.hs_p90);
              ("p99", Json.Int h.hs_p99);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (ub, c) -> Json.List [ Json.Int ub; Json.Int c ])
                     h.hs_buckets) );
            ])
  in
  Json.Obj [ ("metrics", Json.List (List.map entry snap)) ]
