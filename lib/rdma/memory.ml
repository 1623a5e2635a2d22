type region = { rid : int; buf : Bytes.t }
type addr = { mem_node : int; mem_rid : int; mem_off : int }

let make_region ~rid ~size = { rid; buf = Bytes.make size '\000' }
let region_size r = Bytes.length r.buf
let wipe r = Bytes.fill r.buf 0 (Bytes.length r.buf) '\000'

let check r ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length r.buf then
    invalid_arg
      (Printf.sprintf "Memory: access [%d, %d) outside region %d of size %d" off
         (off + len) r.rid (Bytes.length r.buf))

let read_bytes r ~off ~len =
  check r ~off ~len;
  Bytes.sub r.buf off len

let write_bytes r ~off payload =
  check r ~off ~len:(Bytes.length payload);
  Bytes.blit payload 0 r.buf off (Bytes.length payload)

let get_i64 r ~off =
  check r ~off ~len:8;
  Bytes.get_int64_le r.buf off

let get_int r ~off =
  check r ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le r.buf off)

let set_i64 r ~off v =
  check r ~off ~len:8;
  Bytes.set_int64_le r.buf off v

let addr ~node r ~off = { mem_node = node; mem_rid = r.rid; mem_off = off }
let shift a n = { a with mem_off = a.mem_off + n }
