let digits = "0123456789abcdef"

(* Hex rendering sits on hot paths (every route's [Id.short], every
   certificate's ids, hashes and salt). Byte value v renders as the
   precomputed character pair at [2v, 2v+1]: one bounds-check-free
   table read per output character and no per-nibble shifting. *)
let pairs =
  String.init 512 (fun i ->
      let v = i / 2 in
      if i land 1 = 0 then digits.[v lsr 4] else digits.[v land 0xf])

let of_string_prefix s n =
  if n < 0 || n > String.length s then
    invalid_arg (Printf.sprintf "Hex.of_string_prefix: %d bytes of a %d-byte string" n (String.length s));
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get pairs (2 * v));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get pairs ((2 * v) + 1))
  done;
  Bytes.unsafe_to_string out

let of_string s = of_string_prefix s (String.length s)
let of_bytes b = of_string (Bytes.unsafe_to_string b)
