(** Lowercase hex encoding, table-driven (no [Printf]). The one encoder
    behind digests, ids and salts. *)

val of_string : string -> string
(** [of_string s] is the 2·|s|-character lowercase hex of [s]. *)

val of_string_prefix : string -> int -> string
(** [of_string_prefix s n] encodes the first [n] bytes of [s]. Raises
    [Invalid_argument] unless [0 <= n <= String.length s]. *)

val of_bytes : bytes -> string
