module Sha1 = Past_crypto.Sha1
module Sha256 = Past_crypto.Sha256
module Rsa = Past_crypto.Rsa
module Signer = Past_crypto.Signer
module Rng = Past_stdext.Rng

let check = Alcotest.check
let ( => ) name f = Alcotest.test_case name `Quick f

(* FIPS 180 test vectors. *)

let sha1_vectors () =
  let cases =
    [
      ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
      ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
      ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
    ]
  in
  List.iter (fun (input, expect) -> check Alcotest.string input expect (Sha1.digest_hex input)) cases

let sha1_million_a () =
  check Alcotest.string "10^6 x a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.digest_hex (String.make 1_000_000 'a'))

let sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter
    (fun (input, expect) -> check Alcotest.string input expect (Sha256.digest_hex input))
    cases

let sha256_million_a () =
  check Alcotest.string "10^6 x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

(* The production kernels against the original implementations kept
   in Sha_oracle: digest and hex for every length 0-300, which covers
   the one-vs-two padding-block edges (55/56, 119/120) and the
   full-block edges (63/64, 127/128) several times over. *)
let matches_oracle s =
  String.equal (Sha1.digest_hex s) (Sha_oracle.Sha1.digest_hex s)
  && String.equal (Sha256.digest_hex s) (Sha_oracle.Sha256.digest_hex s)

let padding_boundaries () =
  for len = 0 to 300 do
    let s = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xff)) in
    check Alcotest.bool (Printf.sprintf "len %d = oracle" len) true (matches_oracle s)
  done

let qcheck_kernels_match_oracle =
  QCheck.Test.make ~name:"sha1/sha256 = oracle on arbitrary strings" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 1100) Gen.char)
    matches_oracle

let sha_distinct_inputs () =
  check Alcotest.bool "different inputs differ" false
    (String.equal (Sha256.digest_hex "a") (Sha256.digest_hex "b"))

(* --- RSA --- *)

let keypair = lazy (Rsa.generate (Rng.create 100) ~bits:512)
let keypair2 = lazy (Rsa.generate (Rng.create 101) ~bits:256)

let rsa_sign_verify () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "The PAST storage utility" in
  let s = Rsa.sign kp msg in
  check Alcotest.bool "verifies" true (Rsa.verify kp.Rsa.pub msg s)

let rsa_reject_tampered_message () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp (Bytes.of_string "original") in
  check Alcotest.bool "tampered" false (Rsa.verify kp.Rsa.pub (Bytes.of_string "tampered") s)

let rsa_reject_tampered_signature () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "msg" in
  let s = Rsa.sign kp msg in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 1));
  check Alcotest.bool "bad sig" false (Rsa.verify kp.Rsa.pub msg s)

let rsa_reject_wrong_key () =
  let kp = Lazy.force keypair and kp2 = Lazy.force keypair2 in
  let msg = Bytes.of_string "msg" in
  let s = Rsa.sign kp msg in
  check Alcotest.bool "wrong key" false (Rsa.verify kp2.Rsa.pub msg s)

let rsa_signature_length () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp (Bytes.of_string "x") in
  check Alcotest.int "length = modulus bytes" 64 (Bytes.length s)

let rsa_small_keys_work () =
  let kp = Rsa.generate (Rng.create 5) ~bits:128 in
  let msg = Bytes.of_string "tiny key" in
  check Alcotest.bool "verifies" true (Rsa.verify kp.Rsa.pub msg (Rsa.sign kp msg))

let rsa_fingerprint_stable () =
  let kp = Lazy.force keypair in
  check Alcotest.string "fingerprint deterministic" (Rsa.fingerprint kp.Rsa.pub)
    (Rsa.fingerprint kp.Rsa.pub)

let rsa_deterministic_signature () =
  let kp = Lazy.force keypair in
  let msg = Bytes.of_string "same" in
  check Alcotest.bytes "same signature" (Rsa.sign kp msg) (Rsa.sign kp msg)

(* --- Signer --- *)

let signer_roundtrip mode name =
  let kp = Signer.generate (Rng.create 9) ~mode in
  let pub = Signer.public kp in
  let msg = Bytes.of_string "payload" in
  let s = Signer.sign kp msg in
  check Alcotest.bool (name ^ " verifies") true (Signer.verify pub msg s);
  check Alcotest.bool (name ^ " rejects tampered") false
    (Signer.verify pub (Bytes.of_string "other") s)

let signer_rsa () = signer_roundtrip (`Rsa 256) "rsa"
let signer_insecure () = signer_roundtrip `Insecure "insecure"

let signer_keys_distinct () =
  let a = Signer.generate (Rng.create 1) ~mode:`Insecure in
  let b = Signer.generate (Rng.create 2) ~mode:`Insecure in
  check Alcotest.bool "publics differ" false
    (Signer.equal_public (Signer.public a) (Signer.public b))

let signer_cross_key_fails () =
  let a = Signer.generate (Rng.create 1) ~mode:`Insecure in
  let b = Signer.generate (Rng.create 2) ~mode:`Insecure in
  let msg = Bytes.of_string "m" in
  check Alcotest.bool "cross verify fails" false
    (Signer.verify (Signer.public b) msg (Signer.sign a msg))

let suite =
  ( "crypto",
    [
      "sha1 FIPS vectors" => sha1_vectors;
      "sha1 million a" => sha1_million_a;
      "sha256 FIPS vectors" => sha256_vectors;
      "sha256 million a" => sha256_million_a;
      "padding boundaries" => padding_boundaries;
      QCheck_alcotest.to_alcotest qcheck_kernels_match_oracle;
      "distinct inputs" => sha_distinct_inputs;
      "rsa sign/verify" => rsa_sign_verify;
      "rsa rejects tampered message" => rsa_reject_tampered_message;
      "rsa rejects tampered signature" => rsa_reject_tampered_signature;
      "rsa rejects wrong key" => rsa_reject_wrong_key;
      "rsa signature length" => rsa_signature_length;
      "rsa small keys" => rsa_small_keys_work;
      "rsa fingerprint stable" => rsa_fingerprint_stable;
      "rsa deterministic signature" => rsa_deterministic_signature;
      "signer rsa mode" => signer_rsa;
      "signer insecure mode" => signer_insecure;
      "signer keys distinct" => signer_keys_distinct;
      "signer cross-key fails" => signer_cross_key_fails;
    ] )
