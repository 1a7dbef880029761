(* A fixed reference workload that uses none of the program's code and
   touches no memory beyond a 16 KB table that stays in the core's
   first-level cache: a dependent chain of multiplies, shifts and
   table loads. It allocates nothing, so the program's heap and
   collector cannot change its cost. Timed between the batches of a
   run, it measures how fast the host's core is running at that
   moment. *)

type t = { table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable x : int }

let size = 2048

let create () =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
  for i = 0 to size - 1 do
    a.{i} <- i * 0x9E3779B1
  done;
  { table = a; x = 1 }

let iterations = 160_000

(* Wall times are reported as on a host where [run] takes 1 ms. *)
let nominal_ns = 1e6

(* One fixed unit of reference work; returns its wall ns. *)
let run t =
  let t0 = Clock.now_ns () in
  let x = ref t.x in
  for _ = 1 to iterations do
    let v = t.table.{(!x lsr 11) land (size - 1)} in
    x := ((!x lxor v) * 0x5851F42D4C957F2D) + 0x14057B7EF767814F
  done;
  t.x <- !x;
  Clock.now_ns () - t0
