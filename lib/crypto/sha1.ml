(* 32-bit arithmetic on native 63-bit ints, masking after each op. *)

let m32 = 0xFFFFFFFF
let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land m32

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked big-endian word load; callers keep [off + 4 <= length]. *)
let[@inline] load_be s off =
  let x = get32u s off in
  Int32.to_int (if Sys.big_endian then x else bswap32 x) land m32

(* One block at [s.[off] .. s.[off + 63]] into the chaining state [h]
   (5 words), with [w] as the 80-word schedule. The round loop is split
   by phase so each runs with its own boolean function (Ch and Maj in
   their three-operation forms) and constant. The rounds are written
   out rather than shared through a local function: a ref captured by
   a closure stays a heap cell, one that is not becomes a register. *)
let compress h w s off =
  for t = 0 to 15 do
    Array.unsafe_set w t (load_be s (off + (4 * t)))
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) in
  for t = 0 to 19 do
    let f = !d lxor (!b land (!c lxor !d)) in
    let tmp = (rotl !a 5 + f + !e + Array.unsafe_get w t + 0x5A827999) land m32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 20 to 39 do
    let f = !b lxor !c lxor !d in
    let tmp = (rotl !a 5 + f + !e + Array.unsafe_get w t + 0x6ED9EBA1) land m32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 40 to 59 do
    let f = (!b land !c) lor (!d land (!b lor !c)) in
    let tmp = (rotl !a 5 + f + !e + Array.unsafe_get w t + 0x8F1BBCDC) land m32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  for t = 60 to 79 do
    let f = !b lxor !c lxor !d in
    let tmp = (rotl !a 5 + f + !e + Array.unsafe_get w t + 0xCA62C1D6) land m32 in
    e := !d;
    d := !c;
    c := rotl !b 30;
    b := !a;
    a := tmp
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32

let digest_string s =
  let h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |] in
  let w = Array.make 80 0 in
  Md_blocks.iter s (compress h w);
  Md_blocks.output h

(* The input is only read, and not retained, during the call. *)
let digest_bytes msg = digest_string (Bytes.unsafe_to_string msg)
let hex_of_digest = Past_stdext.Hex.of_bytes
let digest_hex s = hex_of_digest (digest_string s)
