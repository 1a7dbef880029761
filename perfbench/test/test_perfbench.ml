(* Tests of the benchmark's own machinery: its inputs are a function of
   the seed, its percentile helper refuses tails it cannot see, and
   the traced step loop accounts for every step. *)

open Perfbench
module System = Past_core.System
module Node = Past_core.Node

let draws next n = List.init n (fun _ -> next ())

let test_inputs_follow_seed () =
  let open Workloads in
  Alcotest.(check bool)
    "preload sizes" true
    (Lookup_zipf.preload_sizes ~seed:5 = Lookup_zipf.preload_sizes ~seed:5);
  Alcotest.(check bool)
    "preload sizes differ across seeds" false
    (Lookup_zipf.preload_sizes ~seed:5 = Lookup_zipf.preload_sizes ~seed:6);
  let lookups seed = draws (Lookup_zipf.lookup_stream ~seed) 2000 in
  Alcotest.(check bool) "lookup stream" true (lookups 5 = lookups 5);
  Alcotest.(check bool) "lookup streams differ across seeds" false (lookups 5 = lookups 6);
  let inserts seed = draws (Fill_log.insert_stream ~seed) 2000 in
  Alcotest.(check bool) "insert stream" true (inserts 5 = inserts 5);
  Alcotest.(check bool) "insert streams differ across seeds" false (inserts 5 = inserts 6);
  let timeline seed = Churn_mixed.timeline ~seed ~horizon:20_000.0 in
  Alcotest.(check bool) "churn timeline" true (timeline 5 = timeline 5);
  Alcotest.(check bool) "churn timelines differ across seeds" false (timeline 5 = timeline 6)

let raises f =
  match f () with
  | (_ : float) -> false
  | exception Invalid_argument _ -> true

let test_percentile_needs_tail_samples () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "p99 of 999 refused" true (raises (fun () -> Quantile.percentile (ramp 999) ~p:99));
  Alcotest.(check (float 0.0)) "p99 of 1000" 990.0 (Quantile.percentile (ramp 1000) ~p:99);
  Alcotest.(check bool) "p50 of 19 refused" true (raises (fun () -> Quantile.percentile (ramp 19) ~p:50));
  Alcotest.(check (float 0.0)) "p50 of 20" 10.0 (Quantile.percentile (ramp 20) ~p:50)

(* A small deployment with maintenance on, so every step class occurs. *)
let small_run ~traced =
  let sys =
    System.create
      ~node_config:{ Node.default_config with Node.verify_certificates = false }
      ~seed:3 ~n:24
      ~node_capacity:(fun _ _ -> 10_000_000)
      ()
  in
  System.start_maintenance sys;
  let s = Workloads.new_sys sys ~clients:4 ~k:3 in
  let spans = if traced then Some (Spans.create ()) else None in
  Stepper.set_spans s.Workloads.st spans;
  let ids =
    List.filter_map
      (fun i -> Workloads.closed_insert s ~client:(i mod 4) ~name:(string_of_int i) ~size:1000)
      (List.init 20 Fun.id)
  in
  List.iteri (fun i file_id -> Workloads.closed_lookup s ~client:(i mod 4) ~file_id) ids;
  Stepper.run_to s.st (Past_simnet.Net.now (System.net sys) +. 20_000.0);
  System.shutdown sys;
  (s, spans)

let test_step_classes_add_up () =
  let s, spans = small_run ~traced:true in
  let st = s.Workloads.st in
  let classes = Array.to_list Stepper.classes in
  let per_class = List.map (Stepper.class_steps st) classes in
  List.iter2
    (fun c n -> Alcotest.(check bool) (Stepper.class_name c ^ " occurs") true (n > 0))
    classes per_class;
  Alcotest.(check int) "classes sum to steps" (Stepper.steps st) (List.fold_left ( + ) 0 per_class);
  let sum = Spans.summarize (Option.get spans) in
  let step_spans = List.map (fun c -> Spans.find sum (Stepper.class_name c)) classes in
  Alcotest.(check int)
    "one span per step" (Stepper.steps st)
    (List.fold_left (fun a x -> a + x.Spans.count) 0 step_spans);
  List.iter
    (fun x -> Alcotest.(check int) (x.Spans.s_name ^ " is a leaf") x.Spans.total_ns x.Spans.self_ns)
    step_spans;
  let untraced, _ = small_run ~traced:false in
  Alcotest.(check int)
    "tracing leaves the event sequence alone" (Stepper.steps st)
    (Stepper.steps untraced.Workloads.st)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "inputs follow the seed" `Quick test_inputs_follow_seed;
          Alcotest.test_case "percentile needs tail samples" `Quick test_percentile_needs_tail_samples;
          Alcotest.test_case "step classes add up" `Quick test_step_classes_add_up;
        ] );
    ]
