(* Test oracles: the original from-scratch SHA-1 and SHA-256, kept
   verbatim as the reference the production kernels in lib/crypto are
   compared against (test_crypto.ml). They pad a full copy of the
   message, load words byte by byte and render hex with one [Printf]
   per byte — slow, but straight from FIPS 180 and independent of the
   production code's block handling. *)

module Sha1 = struct
  (* 32-bit arithmetic on native 63-bit ints, masking after each op. *)

  let m32 = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land m32

  let pad msg =
    let len = Bytes.length msg in
    let bit_len = len * 8 in
    let padded_len =
      let l = len + 1 + 8 in
      ((l + 63) / 64) * 64
    in
    let out = Bytes.make padded_len '\000' in
    Bytes.blit msg 0 out 0 len;
    Bytes.set out len '\x80';
    for i = 0 to 7 do
      Bytes.set out (padded_len - 1 - i) (Char.chr ((bit_len lsr (8 * i)) land 0xFF))
    done;
    out

  let digest_bytes msg =
    let data = pad msg in
    let h0 = ref 0x67452301
    and h1 = ref 0xEFCDAB89
    and h2 = ref 0x98BADCFE
    and h3 = ref 0x10325476
    and h4 = ref 0xC3D2E1F0 in
    let w = Array.make 80 0 in
    let blocks = Bytes.length data / 64 in
    for blk = 0 to blocks - 1 do
      let off = blk * 64 in
      for t = 0 to 15 do
        let b i = Char.code (Bytes.get data (off + (4 * t) + i)) in
        w.(t) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
      done;
      for t = 16 to 79 do
        w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
      done;
      let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
      for t = 0 to 79 do
        let f, k =
          if t < 20 then ((!b land !c) lor (lnot !b land !d) land m32, 0x5A827999)
          else if t < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
          else if t < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
          else (!b lxor !c lxor !d, 0xCA62C1D6)
        in
        let tmp = (rotl !a 5 + (f land m32) + !e + w.(t) + k) land m32 in
        e := !d;
        d := !c;
        c := rotl !b 30;
        b := !a;
        a := tmp
      done;
      h0 := (!h0 + !a) land m32;
      h1 := (!h1 + !b) land m32;
      h2 := (!h2 + !c) land m32;
      h3 := (!h3 + !d) land m32;
      h4 := (!h4 + !e) land m32
    done;
    let out = Bytes.create 20 in
    let put i v =
      for j = 0 to 3 do
        Bytes.set out ((4 * i) + j) (Char.chr ((v lsr (8 * (3 - j))) land 0xFF))
      done
    in
    put 0 !h0;
    put 1 !h1;
    put 2 !h2;
    put 3 !h3;
    put 4 !h4;
    out

  let digest_string s = digest_bytes (Bytes.of_string s)

  let hex_of_digest d =
    let buf = Buffer.create (2 * Bytes.length d) in
    Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
    Buffer.contents buf

  let digest_hex s = hex_of_digest (digest_string s)
end

module Sha256 = struct
  let m32 = 0xFFFFFFFF
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32
  let shr x n = x lsr n

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

  let pad msg =
    let len = Bytes.length msg in
    let bit_len = len * 8 in
    let padded_len =
      let l = len + 1 + 8 in
      ((l + 63) / 64) * 64
    in
    let out = Bytes.make padded_len '\000' in
    Bytes.blit msg 0 out 0 len;
    Bytes.set out len '\x80';
    for i = 0 to 7 do
      Bytes.set out (padded_len - 1 - i) (Char.chr ((bit_len lsr (8 * i)) land 0xFF))
    done;
    out

  let digest_bytes msg =
    let data = pad msg in
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
         0x5be0cd19 |]
    in
    let w = Array.make 64 0 in
    let blocks = Bytes.length data / 64 in
    for blk = 0 to blocks - 1 do
      let off = blk * 64 in
      for t = 0 to 15 do
        let b i = Char.code (Bytes.get data (off + (4 * t) + i)) in
        w.(t) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
      done;
      for t = 16 to 63 do
        let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor shr w.(t - 15) 3 in
        let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor shr w.(t - 2) 10 in
        w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
      done;
      let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
      let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
      for t = 0 to 63 do
        let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
        let ch = (!e land !f) lxor (lnot !e land !g) land m32 in
        let temp1 = (!hh + s1 + ch + k.(t) + w.(t)) land m32 in
        let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
        let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
        let temp2 = (s0 + maj) land m32 in
        hh := !g;
        g := !f;
        f := !e;
        e := (!d + temp1) land m32;
        d := !c;
        c := !b;
        b := !a;
        a := (temp1 + temp2) land m32
      done;
      h.(0) <- (h.(0) + !a) land m32;
      h.(1) <- (h.(1) + !b) land m32;
      h.(2) <- (h.(2) + !c) land m32;
      h.(3) <- (h.(3) + !d) land m32;
      h.(4) <- (h.(4) + !e) land m32;
      h.(5) <- (h.(5) + !f) land m32;
      h.(6) <- (h.(6) + !g) land m32;
      h.(7) <- (h.(7) + !hh) land m32
    done;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      for j = 0 to 3 do
        Bytes.set out ((4 * i) + j) (Char.chr ((h.(i) lsr (8 * (3 - j))) land 0xFF))
      done
    done;
    out

  let digest_string s = digest_bytes (Bytes.of_string s)

  let hex_of_digest d =
    let buf = Buffer.create (2 * Bytes.length d) in
    Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
    Buffer.contents buf

  let digest_hex s = hex_of_digest (digest_string s)
end
