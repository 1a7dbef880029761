(* 32-bit arithmetic on native 63-bit ints; sums are masked to 32 bits
   before they are stored. *)

let m32 = 0xFFFFFFFF

(* A 32-bit word next to a copy of itself (bits 32-62; bit 63 does not
   exist and is never needed). Bits 0-31 of [twice x lsr n] are x
   rotated right by n, for 0 <= n <= 31: one shift per rotation, and
   one mask per xor of rotations. *)
let[@inline] twice x = x lor (x lsl 32)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked big-endian word load; callers keep [off + 4 <= length]. *)
let[@inline] load_be s off =
  let x = get32u s off in
  Int32.to_int (if Sys.big_endian then x else bswap32 x) land m32

(* Σ1(e) + Ch(e, f, g) and Σ0(a) + Maj(a, b, c), each a sum of two
   32-bit values left unmasked; Ch and Maj in their three-operation
   forms. *)
let[@inline] sigma1_ch e f g =
  let x = twice e in
  (((x lsr 6) lxor (x lsr 11) lxor (x lsr 25)) land m32) + (g lxor (e land (f lxor g)))

let[@inline] sigma0_maj a b c =
  let x = twice a in
  (((x lsr 2) lxor (x lsr 13) lxor (x lsr 22)) land m32) + ((a land (b lor c)) lor (b land c))

let[@inline] kw w t = Array.unsafe_get k t + Array.unsafe_get w t

(* One block at [s.[off] .. s.[off + 63]] into the chaining state [h]
   (8 words), with [w] as the 64-word schedule. *)
let compress h w s off =
  for t = 0 to 15 do
    Array.unsafe_set w t (load_be s (off + (4 * t)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let x15 = twice w15 and x2 = twice w2 in
    let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (w15 lsr 3)) land m32 in
    let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (w2 lsr 10)) land m32 in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land m32)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  (* Eight rounds per iteration with the working variables renamed
     instead of shifted: each round writes only d and h. *)
  for i = 0 to 7 do
    let t = 8 * i in
    let t1 = !hh + sigma1_ch !e !f !g + kw w t in
    d := (!d + t1) land m32;
    hh := (t1 + sigma0_maj !a !b !c) land m32;
    let t1 = !g + sigma1_ch !d !e !f + kw w (t + 1) in
    c := (!c + t1) land m32;
    g := (t1 + sigma0_maj !hh !a !b) land m32;
    let t1 = !f + sigma1_ch !c !d !e + kw w (t + 2) in
    b := (!b + t1) land m32;
    f := (t1 + sigma0_maj !g !hh !a) land m32;
    let t1 = !e + sigma1_ch !b !c !d + kw w (t + 3) in
    a := (!a + t1) land m32;
    e := (t1 + sigma0_maj !f !g !hh) land m32;
    let t1 = !d + sigma1_ch !a !b !c + kw w (t + 4) in
    hh := (!hh + t1) land m32;
    d := (t1 + sigma0_maj !e !f !g) land m32;
    let t1 = !c + sigma1_ch !hh !a !b + kw w (t + 5) in
    g := (!g + t1) land m32;
    c := (t1 + sigma0_maj !d !e !f) land m32;
    let t1 = !b + sigma1_ch !g !hh !a + kw w (t + 6) in
    f := (!f + t1) land m32;
    b := (t1 + sigma0_maj !c !d !e) land m32;
    let t1 = !a + sigma1_ch !f !g !hh + kw w (t + 7) in
    e := (!e + t1) land m32;
    a := (t1 + sigma0_maj !b !c !d) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let digest_string s =
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
       0x5be0cd19 |]
  in
  let w = Array.make 64 0 in
  Md_blocks.iter s (compress h w);
  Md_blocks.output h

(* The input is only read, and not retained, during the call. *)
let digest_bytes msg = digest_string (Bytes.unsafe_to_string msg)
let hex_of_digest = Past_stdext.Hex.of_bytes
let digest_hex s = hex_of_digest (digest_string s)
