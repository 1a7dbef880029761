(** Block handling shared by {!Sha1} and {!Sha256}. The word loads stay
    in each kernel: dev builds compile with [-opaque], which would turn
    a shared helper into a call per word. *)

val iter : string -> (string -> int -> unit) -> unit
(** [iter s compress] pads [s] as FIPS 180 prescribes and calls
    [compress buf off] on each 64-byte block, in order: full blocks in
    place in [s], then the one or two padded tail blocks. *)

val output : int array -> bytes
(** The chaining state's 32-bit words, big-endian. *)
