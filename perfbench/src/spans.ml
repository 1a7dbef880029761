(* In-memory span log for the traced run: one record per span (name,
   parent, start and end in monotonic ns), kept in growable arrays and
   written out when the run ends. Spans nest strictly (the benchmark is
   single-threaded), so a span's self time is its duration minus the
   durations of its direct children. *)

let no_parent = -1

type t = {
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  names : (string, int) Hashtbl.t;
  mutable name_list : string list; (* reversed; index = id *)
}

let create () =
  let cap = 4096 in
  {
    len = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    names = Hashtbl.create 16;
    name_list = [];
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.replace t.names s i;
    t.name_list <- s :: t.name_list;
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- g t.name;
  t.parent <- g t.parent;
  t.start <- g t.start;
  t.stop <- g t.stop

(* [name] is an id from {!intern}; returns the span id. *)
let record t ~name ~parent ~start ~stop =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.len <- i + 1;
  i

(* An open span: recorded now, its end patched by {!close}. *)
let open_ t ~name ~parent = record t ~name ~parent ~start:(Clock.now_ns ()) ~stop:0
let close t id = t.stop.(id) <- Clock.now_ns ()

let length t = t.len
let names t = Array.of_list (List.rev t.name_list)

type summary = { s_name : string; count : int; total_ns : int; self_ns : int }

let summarize t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p <> no_parent then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let k = Hashtbl.length t.names in
  let count = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) and d = t.stop.(i) - t.start.(i) in
    count.(n) <- count.(n) + 1;
    total.(n) <- total.(n) + d;
    self.(n) <- self.(n) + d - child.(i)
  done;
  Array.to_list
    (Array.mapi
       (fun i s_name -> { s_name; count = count.(i); total_ns = total.(i); self_ns = self.(i) })
       (names t))

let find summary name =
  match List.find_opt (fun s -> s.s_name = name) summary with
  | Some s -> s
  | None -> { s_name = name; count = 0; total_ns = 0; self_ns = 0 }

(* CSV: id,parent,name,start_ns,end_ns — start times relative to the
   first span. *)
let write t path =
  let oc = open_out path in
  let names = names t in
  let base = if t.len = 0 then 0 else t.start.(0) in
  output_string oc "id,parent,name,start_ns,end_ns\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d,%d,%s,%d,%d\n" i t.parent.(i) names.(t.name.(i)) (t.start.(i) - base)
      (t.stop.(i) - base)
  done;
  close_out oc
