(* Runs one workload and turns what it measured into metrics.

   Untraced run (end-to-end metrics): the deployment is set up
   [replicas] times and setup_s is the median. Every replica runs the
   deterministic prefix of the op stream; the outcome digests of all
   replicas must agree. The last replica then runs the whole op stream.

   Traced run (per-layer metrics): two deployments of the same seed,
   A with the default trace ring and B with [~trace_capacity:0], run
   the same op stream batch by batch. Batch i is traced on A when i is
   even and on B when it is odd, so every batch runs once traced and
   once untraced and once on each ring setting: the traced/untraced
   ratio is the benchmark's tracing overhead, the A/B ratio the cost of
   the program's trace ring. Per-layer times and counts come from A. *)

open Workloads

let seconds ns = float_of_int ns /. 1e9
let digest s = Digest.to_hex (Digest.string (Buffer.contents s.acc.digest))
let close_digest s = s.acc.digest_open <- false

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let m ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* One measured batch: its wall time and what it got done. *)
type batch = { b_ns : int; b_steps : int; b_sim : float; b_lookups : int; b_inserts : int }

let sum_batches batches f = List.fold_left (fun acc b -> acc +. f b) 0.0 batches

(* Host speed. On a shared host the core runs the same work up to 1.6x
   slower for stretches of seconds to minutes. The reference unit of
   {!Calib} is timed after each set-up and between batches (about once
   per 20 ms of measured time), and every wall time of the run is
   scaled by [Calib.nominal_ns] over the median reference time. *)
type host = { calib : Calib.t; mutable ref_ns : float list }

let sample_host h n =
  for _ = 1 to n do
    h.ref_ns <- float_of_int (Calib.run h.calib) :: h.ref_ns
  done

let host_scale h = Calib.nominal_ns /. Quantile.middle (Array.of_list h.ref_ns)

(* Rate, p50 and p99 of one op type of a closed loop, from the wall
   latencies [a] (us) of all its ops, scaled by the host factor. *)
let closed_metrics prefix a ~scale =
  let us = Array.map (fun x -> x *. scale) a in
  let n = Array.length us in
  [
    m ~samples:n (prefix ^ "_per_s") "1/s" (float_of_int n *. 1e6 /. Array.fold_left ( +. ) 0.0 us);
    m ~samples:n (prefix ^ "_p50_us") "us" (Quantile.percentile us ~p:50);
    m ~samples:n (prefix ^ "_p99_us") "us" (Quantile.percentile us ~p:99);
  ]

(* The same for an open loop, whose ops overlap: an op's wall time from
   issue to callback is mostly the background work of the whole system
   meanwhile. Its latency is therefore its simulated latency [sim]
   converted at the run's wall time per simulated unit, and its rate
   the ops settled per simulated unit at that speed. *)
let open_metrics prefix sim ~settled ~units ~ns_per_unit =
  let us = Array.map (fun u -> u *. ns_per_unit /. 1e3) sim in
  let n = Array.length us in
  [
    m ~samples:settled (prefix ^ "_per_s") "1/s"
      (float_of_int settled /. units *. 1e9 /. ns_per_unit);
    m ~samples:n (prefix ^ "_p50_us") "us" (Quantile.percentile us ~p:50);
    m ~samples:n (prefix ^ "_p99_us") "us" (Quantile.percentile us ~p:99);
  ]

let store_stats s =
  Array.fold_left
    (fun (disk, live, compactions, segments) node ->
      match Store.log_stats (Node.store node) with
      | None -> (disk, live, compactions, segments)
      | Some st ->
        Past_core.Log_store.
          ( disk + st.disk_bytes,
            live + st.live_bytes,
            compactions + st.compactions,
            segments + st.segments ))
    (0, 0, 0, 0) (System.nodes s.sys)

let info spec s =
  Hashtbl.fold (fun cause n acc -> ("failed: " ^ cause, string_of_int n) :: acc) s.acc.causes []
  @ [
    ("replicas", string_of_int spec.replicas);
    ("nodes", string_of_int (System.node_count s.sys));
    ("sim_time", Printf.sprintf "%.0f" (Net.now (System.net s.sys)));
    ("utilization", Printf.sprintf "%.4f" (System.global_utilization s.sys));
  ]

let run_untraced spec ~seed =
  let host = { calib = Calib.create (); ref_ns = [] } in
  let setups = ref [] and digests = ref [] in
  let rec replicas r =
    Gc.full_major ();
    let (s, w), ns = timed (fun () -> spec.setup ~seed ~trace_capacity:None ~spans:None) in
    setups := seconds ns :: !setups;
    sample_host host 5;
    if r < spec.replicas then begin
      for i = 0 to spec.prefix - 1 do
        ignore (spec.batch s w i : bool)
      done;
      digests := digest s :: !digests;
      System.shutdown s.sys;
      replicas (r + 1)
    end
    else (s, w)
  in
  let s, w = replicas 1 in
  (* latencies are those of the measured phase, not of the preload *)
  Quantile.clear s.acc.lookup_us;
  Quantile.clear s.acc.insert_us;
  let before = snap s in
  let net = System.net s.sys in
  let rec loop i batches =
    let e0 = Stepper.steps s.st and sim0 = Net.now net in
    let l0 = s.acc.lookups and i0 = s.acc.inserts in
    let more, ns = timed (fun () -> spec.batch s w i) in
    sample_host host (1 + (ns / 20_000_000));
    let b =
      {
        b_ns = ns;
        b_steps = Stepper.steps s.st - e0;
        b_sim = Net.now net -. sim0;
        b_lookups = s.acc.lookups - l0;
        b_inserts = s.acc.inserts - i0;
      }
    in
    if i = spec.prefix - 1 then begin
      close_digest s;
      digests := digest s :: !digests
    end;
    if more then loop (i + 1) (b :: batches) else b :: batches
  in
  let batches = loop 0 [] in
  let after_measure = snap s in
  Gc.full_major ();
  let live_bytes = (Gc.stat ()).Gc.live_words * (Sys.word_size / 8) in
  let d = delta before after_measure in
  let work =
    List.map (fun k -> (k, Printf.sprintf "%.0f" (d k))) [ "steps"; "routed"; "direct"; "control"; "dropped" ]
    @ [ ("crashes", string_of_int (spec.crashes w)) ]
  in
  spec.finish s w;
  let a = s.acc in
  if List.length (List.sort_uniq compare !digests) <> 1 then
    error a
      (Printf.sprintf "outcome digests differ across %d set-ups of seed %d" spec.replicas seed);
  let scale = host_scale host in
  let raw_wall_ns = sum_batches batches (fun b -> float_of_int b.b_ns) in
  let wall_ns = raw_wall_ns *. scale in
  let steps = sum_batches batches (fun b -> float_of_int b.b_steps) in
  let op_metrics =
    if spec.open_loop then begin
      let units = sum_batches batches (fun b -> b.b_sim) in
      let settled f = List.fold_left (fun acc b -> acc + f b) 0 batches in
      let ns_per_unit = wall_ns /. units in
      open_metrics "lookup" (Quantile.to_array a.lookup_sim)
        ~settled:(settled (fun b -> b.b_lookups)) ~units ~ns_per_unit
      @ open_metrics "insert" (Quantile.to_array a.insert_sim)
          ~settled:(settled (fun b -> b.b_inserts)) ~units ~ns_per_unit
    end
    else
      closed_metrics "lookup" (Quantile.to_array a.lookup_us) ~scale
      @ closed_metrics "insert" (Quantile.to_array a.insert_us) ~scale
  in
  let setup_s = Quantile.middle (Array.of_list !setups) in
  let end_to_end =
    [ m ~samples:spec.replicas "setup_s" "s" (setup_s *. scale) ]
    @ op_metrics
    @ [
        m ~samples:(int_of_float steps) "events_per_s" "1/s" (steps *. 1e9 /. wall_ns);
        m ~samples:a.found "lookup_hops_mean" "count" (ratio a.hops a.found);
        m "live_heap_mb" "MB" (float_of_int live_bytes /. 1e6);
        m ~samples:a.attempted "fail_share" "share" (ratio a.failed a.attempted);
      ]
  in
  System.shutdown s.sys;
  let sim_tail b =
    let a = Quantile.to_array b in
    Printf.sprintf "%.0f/%.0f" (Quantile.percentile a ~p:50) (Quantile.percentile a ~p:99)
  in
  {
    end_to_end;
    per_layer = [];
    attempted = a.attempted;
    failed = a.failed;
    errors = List.rev a.errors;
    info =
      info spec s @ work
      @ (if spec.open_loop then
           [ ("lookup_sim_p50/p99", sim_tail a.lookup_sim); ("insert_sim_p50/p99", sim_tail a.insert_sim) ]
         else [])
      @ [
          ("digest", List.hd !digests);
          ("host_scale", Printf.sprintf "%.4f" scale);
          ("reference_units", string_of_int (List.length host.ref_ns));
          ("raw_setup_s", Printf.sprintf "%.4f" setup_s);
          ("raw_events_per_s", Printf.sprintf "%.0f" (steps *. 1e9 /. raw_wall_ns));
        ];
  }

(* slot: 0 = A traced, 1 = A untraced, 2 = B traced, 3 = B untraced *)
let run_traced ?spans_out spec ~seed =
  let spans_a = Spans.create () and spans_b = Spans.create () in
  let a, wa = spec.setup ~seed ~trace_capacity:None ~spans:(Some spans_a) in
  let b, wb = spec.setup ~seed ~trace_capacity:(Some 0) ~spans:(Some spans_b) in
  let before = snap a and before_b = snap b in
  let slot_ns = Array.make 4 0 and slot_ops = Array.make 4 0 in
  let run_batch s w spans i ~slot =
    Stepper.set_spans s.st (if slot land 1 = 0 then Some spans else None);
    let ops0 = s.acc.attempted in
    let more, ns = timed (fun () -> spec.batch s w i) in
    slot_ns.(slot) <- slot_ns.(slot) + ns;
    slot_ops.(slot) <- slot_ops.(slot) + s.acc.attempted - ops0;
    more
  in
  let rec loop i =
    let even = i land 1 = 0 in
    let more = run_batch a wa spans_a i ~slot:(if even then 0 else 1) in
    ignore (run_batch b wb spans_b i ~slot:(if even then 3 else 2) : bool);
    if i = spec.prefix - 1 then begin
      close_digest a;
      close_digest b
    end;
    if more then loop (i + 1)
  in
  loop 0;
  let after = snap a and after_b = snap b in
  let timer_steps = Stepper.class_steps a.st Stepper.Timer in
  (* The drain is background work of its own: traced on A. *)
  Stepper.set_spans a.st (Some spans_a);
  spec.finish a wa;
  Stepper.set_spans b.st None;
  spec.finish b wb;
  if digest a <> digest b then error a.acc "trace ring changed the outcomes of the op stream";
  let sum = Spans.summarize spans_a in
  let cls c = Spans.find sum (Stepper.class_name c) in
  let steps = List.map cls (Array.to_list Stepper.classes) in
  let step_count = List.fold_left (fun acc s -> acc + s.Spans.count) 0 steps in
  let step_self = List.fold_left (fun acc s -> acc + s.Spans.self_ns) 0 steps in
  let step_total = List.fold_left (fun acc s -> acc + s.Spans.total_ns) 0 steps in
  let classed = Array.fold_left (fun acc c -> acc + Stepper.class_steps a.st c) 0 Stepper.classes in
  if step_self <> step_total || step_count <> classed then
    error a.acc
      (Printf.sprintf "step classes do not add up: self %d ns vs %d ns, %d vs %d steps" step_self
         step_total step_count classed);
  let per_step c =
    let s = cls c in
    if s.Spans.count = 0 then 0.0 else float_of_int s.Spans.self_ns /. float_of_int s.Spans.count
  in
  let d = delta before after in
  let ops = d "ops" in
  let traced_ops = float_of_int slot_ops.(0) in
  let crashes = spec.crashes wa in
  let disk, live, compactions, segments = store_stats a in
  let both_ops = ops +. delta before_b after_b "ops" in
  let both_msgs = d "delivered" +. delta before_b after_b "delivered" in
  let minor = d "minor" and major = d "major" in
  let per_op x = fratio x ops in
  let per_layer =
    [
      m "simnet.events_per_op" "count" (per_op (d "steps"));
      m "simnet.events_per_ksim" "count" (fratio (d "steps") (d "sim" /. 1000.0));
      m "simnet.msgs_per_op" "count" (per_op (d "delivered"));
      m ~samples:classed "simnet.timer_steps_per_op" "count"
        (fratio (float_of_int timer_steps) traced_ops);
      m ~samples:(cls Stepper.Timer).Spans.count "simnet.timer_ns" "ns" (per_step Stepper.Timer);
      m ~samples:step_count "simnet.step_ns" "ns"
        (if step_count = 0 then 0.0 else float_of_int step_self /. float_of_int step_count);
      m "simnet.drop_share" "share" (fratio (d "dropped") (d "sent"));
      m "pastry.hops_per_op" "count" (per_op (d "hops"));
      m "pastry.rare_hop_share" "share" (fratio (d "rare_hops") (d "hops"));
      m ~samples:(cls Stepper.Routed).Spans.count "pastry.routed_ns" "ns"
        (per_step Stepper.Routed);
      m "pastry.control_msgs_per_ksim" "count" (fratio (d "control") (d "sim" /. 1000.0));
      m ~samples:(cls Stepper.Control).Spans.count "pastry.control_ns" "ns"
        (per_step Stepper.Control);
      m ~samples:crashes "pastry.repairs_per_crash" "count"
        (fratio (d "repairs") (float_of_int crashes));
      m ~samples:(cls Stepper.Direct).Spans.count "past.direct_ns" "ns" (per_step Stepper.Direct);
      m "past.direct_msgs_per_op" "count" (per_op (d "direct"));
      m "past.cache_hit_share" "share"
        (fratio (d "cache_hits") (d "cache_hits" +. d "cache_misses"));
      m "past.replica_refuse_share" "share" (fratio (d "rejected") (d "accepted" +. d "rejected"));
      m "past.divert_per_insert" "count" (fratio (d "diverts") (d "inserts"));
      m "past.client_retries_per_op" "count" (per_op (d "retries"));
      m ~samples:crashes "past.rereplicate_per_crash" "count"
        (fratio (d "rereplicate") (float_of_int crashes));
      m "past.utilization_end" "share" (System.global_utilization a.sys);
      m "store.log.write_amp" "ratio" (ratio disk live);
      m "store.log.compactions" "count" (float_of_int compactions);
      m "store.log.segments" "count" (float_of_int segments);
      m "telemetry.ring_cost_share" "share"
        (fratio
           (float_of_int (slot_ns.(0) + slot_ns.(1)))
           (float_of_int (slot_ns.(2) + slot_ns.(3)))
        -. 1.0);
      m "bench.trace_overhead_share" "share"
        (fratio
           (float_of_int (slot_ns.(0) + slot_ns.(2)))
           (float_of_int (slot_ns.(1) + slot_ns.(3)))
        -. 1.0);
      m "gc.minor_words_per_op" "words" (fratio minor both_ops);
      m "gc.minor_words_per_msg" "words" (fratio minor both_msgs);
      m "gc.major_per_kop" "count" (fratio major (both_ops /. 1000.0));
    ]
  in
  let report =
    {
      end_to_end = [];
      per_layer;
      attempted = a.acc.attempted;
      failed = a.acc.failed;
      errors = List.rev a.acc.errors;
      info =
        info spec a
        @ [
            ("digest", digest a);
            ("spans", string_of_int (Spans.length spans_a));
            ("span_self_ms",
              String.concat " "
                (List.map
                   (fun s -> Printf.sprintf "%s=%.1f" s.Spans.s_name (float_of_int s.Spans.self_ns /. 1e6))
                   sum));
          ];
    }
  in
  Option.iter (Spans.write spans_a) spans_out;
  System.shutdown a.sys;
  System.shutdown b.sys;
  report

type packed = Spec : 'w spec -> packed

let spec_of ~seed ~seconds = function
  | "lookup_zipf" -> Spec (Lookup_zipf.spec ~seconds)
  | "fill_log" -> Spec (Fill_log.spec ~seconds)
  | "churn_mixed" -> Spec (Churn_mixed.spec ~seed ~seconds)
  | w -> invalid_arg (Printf.sprintf "unknown workload %S (known: %s)" w (String.concat ", " names))

let run ?spans_out ~workload ~seed ~seconds ~trace () =
  let (Spec spec) = spec_of ~seed ~seconds workload in
  if trace then run_traced ?spans_out spec ~seed else run_untraced spec ~seed
