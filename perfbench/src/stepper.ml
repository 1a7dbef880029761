(* The benchmark's own event loop: the same [Net.step] loop that
   [Client.*_sync] and [Net.run] run, so event order is unchanged, but
   counted and, when a span log is attached, timed step by step.

   A traced step is classed by which per-kind [net.delivered] counter
   it moved: a routed message ([routed/*]), a direct message
   ([direct]), a Pastry control message (every other kind: keep-alives,
   leaf-set and join traffic, announcements), or none — a timer step
   (timeouts, maintenance ticks, client retries, and deliveries dropped
   because their destination is down). *)

module Net = Past_simnet.Net
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter

type cls = Routed | Direct | Control | Timer

let classes = [| Routed; Direct; Control; Timer |]
let class_index = function Routed -> 0 | Direct -> 1 | Control -> 2 | Timer -> 3
let class_name = function
  | Routed -> "step.routed"
  | Direct -> "step.direct"
  | Control -> "step.control"
  | Timer -> "step.timer"

type 'm t = {
  net : 'm Net.t;
  delivered : Counter.t;
  routed : Counter.t array;
  direct : Counter.t;
  mutable steps : int;
  class_steps : int array;
  mutable spans : Spans.t option;
  mutable class_ids : int array; (* span-name ids of the four classes *)
  mutable parent : int; (* span the next steps belong to *)
}

let create net =
  let reg = Net.registry net in
  let kind k = Registry.counter reg ~labels:[ ("kind", k) ] "net.delivered" in
  {
    net;
    delivered = Registry.counter reg "net.delivered";
    routed = [| kind "routed/app"; kind "routed/join" |];
    direct = kind "direct";
    steps = 0;
    class_steps = Array.make 4 0;
    spans = None;
    class_ids = [||];
    parent = Spans.no_parent;
  }

let set_spans t spans =
  t.spans <- spans;
  t.parent <- Spans.no_parent;
  match spans with
  | Some sp -> t.class_ids <- Array.map (fun c -> Spans.intern sp (class_name c)) classes
  | None -> ()

let net t = t.net
let steps t = t.steps
let class_steps t c = t.class_steps.(class_index c)

let[@inline] routed_sum t = Counter.value t.routed.(0) + Counter.value t.routed.(1)

let step t =
  match t.spans with
  | None ->
    let more = Net.step t.net in
    if more then t.steps <- t.steps + 1;
    more
  | Some sp ->
    let d0 = Counter.value t.delivered and r0 = routed_sum t and x0 = Counter.value t.direct in
    let t0 = Clock.now_ns () in
    let more = Net.step t.net in
    let t1 = Clock.now_ns () in
    if more then begin
      let c =
        if Counter.value t.delivered = d0 then 3
        else if routed_sum t <> r0 then 0
        else if Counter.value t.direct <> x0 then 1
        else 2
      in
      ignore (Spans.record sp ~name:t.class_ids.(c) ~parent:t.parent ~start:t0 ~stop:t1 : int);
      t.steps <- t.steps + 1;
      t.class_steps.(c) <- t.class_steps.(c) + 1
    end;
    more

(* Step until [settled ()] holds or the queue drains; the same bound on
   events as [Client.run_until]. *)
let run_until t settled =
  let guard = ref 0 in
  while (not (settled ())) && step t && !guard < 50_000_000 do
    incr guard
  done

(* Step until simulated time reaches [until]: an environment marker
   timer at [until] ends the loop, so no event past it is processed. *)
let run_to t until =
  let reached = ref false in
  Net.schedule t.net ~delay:(Float.max 0.0 (until -. Net.now t.net)) (fun () -> reached := true);
  run_until t (fun () -> !reached)

(* Run [f] inside a span named [name]: the steps it takes become the
   span's children. Just [f ()] when untraced. *)
let with_span t name f =
  match t.spans with
  | None -> f ()
  | Some sp ->
    let saved = t.parent in
    let id = Spans.open_ sp ~name:(Spans.intern sp name) ~parent:saved in
    t.parent <- id;
    Fun.protect
      ~finally:(fun () ->
        Spans.close sp id;
        t.parent <- saved)
      f
