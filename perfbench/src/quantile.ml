(* A percentile is reported only when at least ten samples lie beyond
   it, so a p99 needs 1,000 samples: below that the "99th percentile" is
   one or two unlucky samples, not a tail. *)

let min_samples ~p = (1000 + (100 - p) - 1) / (100 - p)

let percentile samples ~p =
  if p < 1 || p > 99 then invalid_arg (Printf.sprintf "Quantile.percentile: p=%d not in 1..99" p);
  let n = Array.length samples in
  if n * (100 - p) < 1000 then
    invalid_arg
      (Printf.sprintf "Quantile.percentile: p%d needs >= %d samples, got %d" p (min_samples ~p) n);
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  (* nearest rank *)
  sorted.(((p * n) + 99) / 100 - 1)

(* Growable float sample buffer. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let add b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let to_array b = Array.sub b.data 0 b.len
let clear b = b.len <- 0

(* The median of a few values, such as the set-up times of a run; no
   sample-count floor. *)
let middle costs =
  let v = Array.copy costs in
  Array.sort Float.compare v;
  v.(Array.length v / 2)

