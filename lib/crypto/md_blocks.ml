(* Merkle–Damgård block walk shared by SHA-1 and SHA-256 (FIPS 180
   padding: 0x80, zeros, 64-bit big-endian bit length). Full 64-byte
   blocks are handed to [compress] straight from the input string; only
   the last one or two blocks, which carry the terminator and the
   length, are built in a small padded buffer. *)
let iter s compress =
  let len = String.length s in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    compress s (64 * blk)
  done;
  let rest = len - (64 * full) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s (64 * full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  let tail = Bytes.unsafe_to_string tail in
  compress tail 0;
  if tail_len = 128 then compress tail 64

let output h =
  let out = Bytes.create (4 * Array.length h) in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  out
