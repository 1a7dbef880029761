(* Command-line entry point of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--revision REV] [--spans-out FILE]

   Prints one line per metric (name, value, unit, sample count), a
   manifest line, and as its last line one JSON object with the keys
   correct, attempted, failed and metrics. Exits 1 when an output check
   failed, 2 on a usage or environment error. *)

module Json = Past_stdext.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload lookup_zipf|fill_log|churn_mixed --seed N --seconds S --trace 0|1 \
     [--revision REV] [--spans-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let revision = ref "unknown" and spans_out = ref None in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string_opt v; parse r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); parse r
    | "--revision" :: v :: r -> revision := v; parse r
    | "--spans-out" :: v :: r -> spans_out := Some v; parse r
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown or incomplete argument: " ^ a); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0 -> (s, t, tr)
    | _ -> usage ()
  in
  if not (List.mem !workload Workloads.names) then usage ();
  (* The benchmark measures the default engine, scheduler and store:
     any PAST_* setting would silently measure something else. *)
  (match
     List.filter
       (fun kv -> String.length kv >= 5 && String.sub kv 0 5 = "PAST_")
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | set ->
    prerr_endline ("refusing to run with PAST_* set: " ^ String.concat " " set);
    exit 2);
  let r = Runner.run ?spans_out:!spans_out ~workload:!workload ~seed ~seconds ~trace () in
  let metrics = if trace then r.Workloads.per_layer else r.Workloads.end_to_end in
  List.iter
    (fun (mt : Workloads.metric) ->
      Printf.printf "%-32s %16.6g %-6s n=%d\n" mt.name mt.value mt.unit_ mt.samples)
    metrics;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) r.errors;
  let manifest =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("trace", Json.Bool trace);
         ("revision", Json.String !revision);
         ("cores", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("flush_policy", Json.String "program's own (no extra fsync)");
       ]
      @ List.map (fun (k, v) -> (k, Json.String v)) r.info)
  in
  print_endline ("manifest " ^ Json.to_string manifest);
  let correct = r.errors = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (mt : Workloads.metric) ->
                     (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.String mt.unit_) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
