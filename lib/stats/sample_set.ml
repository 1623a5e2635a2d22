type t = {
  mutable data : int array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = true }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ndata = Array.make (if cap = 0 then 64 else cap * 2) 0 in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size
let is_empty t = t.size = 0

let ensure_sorted t =
  if not t.sorted then begin
    let sub = Array.sub t.data 0 t.size in
    Array.sort compare sub;
    Array.blit sub 0 t.data 0 t.size;
    t.sorted <- true
  end

let mean t =
  if t.size = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = 0 to t.size - 1 do
      sum := !sum +. float_of_int t.data.(i)
    done;
    !sum /. float_of_int t.size
  end

let stddev t =
  if t.size = 0 then 0.
  else begin
    let m = mean t in
    let acc = ref 0. in
    for i = 0 to t.size - 1 do
      let d = float_of_int t.data.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int t.size)
  end

let min_value t =
  if t.size = 0 then invalid_arg "Sample_set.min_value: empty";
  ensure_sorted t;
  t.data.(0)

let max_value t =
  if t.size = 0 then invalid_arg "Sample_set.max_value: empty";
  ensure_sorted t;
  t.data.(t.size - 1)

let percentile t p =
  if t.size = 0 then invalid_arg "Sample_set.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Sample_set.percentile: out of range";
  ensure_sorted t;
  (* Nearest-rank: smallest value with at least p% of samples <= it. *)
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.size)) in
  let idx = max 0 (min (t.size - 1) (rank - 1)) in
  t.data.(idx)

let median t = percentile t 50.

let cdf ?(points = 100) t =
  if t.size = 0 then []
  else begin
    ensure_sorted t;
    let points = max 1 (min points t.size) in
    let acc = ref [] in
    for i = points downto 1 do
      let idx = (i * t.size / points) - 1 in
      let frac = float_of_int (idx + 1) /. float_of_int t.size in
      acc := (t.data.(idx), frac) :: !acc
    done;
    !acc
  end

let values t =
  ensure_sorted t;
  Array.sub t.data 0 t.size

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.data.(i)
  done;
  t
