(* The repository benchmark: five seeded workloads, each driving one layer
   from outside through its public functions, with end-to-end metrics
   from an untraced run and per-layer metrics from a traced one.

     perf.exe list
     perf.exe run WORKLOAD [--seed N] [--seconds S] [--smoke] [--json FILE]
     perf.exe trace WORKLOAD [--seed N] [--seconds S] [--smoke] [--json FILE]
     perf.exe check-manifest BENCHMARK.json

   A run prints every metric of its tier by name and unit, then one JSON
   line {"correct", "attempted", "failed", "metrics"}; it exits 1 when an
   output check fails. README.md has the metric catalogue. *)

type tier = End_to_end | Per_layer

type metric = { name : string; unit_ : string; better : string; tier : tier }

let e2e name unit_ better = { name; unit_; better; tier = End_to_end }
let layer name unit_ = { name; unit_; better = "lower"; tier = Per_layer }

let catalogue =
  [
    e2e "setup_s" "s" "lower";
    e2e "heap_peak_mb" "MB" "lower";
    e2e "throughput_per_s" "1/s" "higher";
    e2e "latency_p50_ms" "ms" "lower";
    layer "routing.dijkstra_runs_per_unit" "count";
    layer "routing.heap_pops_per_unit" "count";
    layer "routing.heap_pops_per_dijkstra" "count";
    layer "routing.dijkstra_runs_setup" "count";
    layer "core.replay_step_ms_p50" "ms";
    layer "core.replay_step_ms_p99" "ms";
    layer "optim.elastic_call_ms_p50" "ms";
    layer "optim.elastic_call_ms_p90" "ms";
    layer "core.observe_ms_per_unit" "ms";
    layer "core.precompute_ms" "ms";
    layer "core.precompute.always_on_ms" "ms";
    layer "core.precompute.on_demand_ms" "ms";
    layer "core.precompute.failover_ms" "ms";
    layer "core.precompute.validate_ms" "ms";
    layer "core.evaluate_ms" "ms";
    layer "core.precompute_cached_hit_ms" "ms";
    layer "gc.minor_mwords_per_unit" "Mwords";
    layer "fault.trial_s_p50" "s";
    layer "netsim.probe_us" "us";
    layer "netsim.probe_events_per_sim_s" "count";
    layer "netsim.events_per_sim_s" "count";
    layer "te.shifts_per_sim_s" "count";
    layer "te.wake_requests_per_sim_s" "count";
    layer "te.panics_per_sim_s" "count";
    layer "netsim.wake_transitions_per_sim_s" "count";
    layer "netsim.sleep_transitions_per_sim_s" "count";
    layer "netsim.fallback_routes_per_trial" "count";
    layer "netsim.rejected_wakes_per_trial" "count";
    layer "serve.decode_ns" "ns";
    layer "serve.handle_request_ns" "ns";
    layer "serve.resolve_ns" "ns";
    layer "serve.encode_ns" "ns";
    layer "serve.p90_ms" "ms";
    layer "serve.p99_ms" "ms";
    layer "serve.max_ms" "ms";
    layer "serve.recompute_ms_p50" "ms";
    layer "serve.swaps_per_update" "count";
    layer "serve.polls_per_update" "count";
    layer "serve.update_visible_p99_ms" "ms";
    layer "trace.overhead_ratio" "ratio";
  ]

let json_string s = "\"" ^ Obs.Export.json_escape s ^ "\""

let json_number v = Printf.sprintf "%.12g" v

(* ------------------------------- run ------------------------------- *)

let result_line ~correct (c : Measure.checks) values =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 c.attempted) c.failed
    (String.concat ", "
       (List.map
          (fun (m, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name) (json_number v)
              (json_string m.unit_))
          values))

(* The --json report: every metric measured, the bench spans with their
   self times, and the registry as the rounds left it. *)
let report_json ~(w : Workloads.workload) ~ctx ~correct (c : Measure.checks) metrics =
  let spans =
    List.sort_uniq String.compare (List.map (fun (s : Measure.span) -> s.name) !Measure.finished)
    |> List.map (fun name ->
           let mine = List.filter (fun (s : Measure.span) -> String.equal s.name name) !Measure.finished in
           let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 mine in
           Printf.sprintf "{\"name\": %s, \"count\": %d, \"total_ms\": %s, \"self_ms\": %s}"
             (json_string name) (List.length mine)
             (json_number (1e3 *. sum (fun s -> s.Measure.dur_s)))
             (json_number (1e3 *. sum (fun s -> s.Measure.self_s))))
  in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"problems\": [%s], \"metrics\": {%s}, \"spans\": [%s], \"registry\": %s}"
    (json_string w.name) ctx.Measure.seed ctx.Measure.trace correct c.attempted c.failed
    (String.concat ", " (List.rev_map json_string c.problems))
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s: %s" (json_string n) (json_number v)) metrics))
    (String.concat ", " spans)
    (String.trim (Obs.Export.to_json (Measure.samples ())))

let run (w : Workloads.workload) ctx json =
  if ctx.Measure.trace then
    Obs.Clock.set_source (fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9);
  Obs.set_enabled ctx.Measure.trace;
  let out = w.run ctx in
  let c = out.Workloads.checks in
  let metrics = out.Workloads.metrics @ [ ("heap_peak_mb", Measure.heap_peak_mb ()) ] in
  let tier = if ctx.Measure.trace then Per_layer else End_to_end in
  let values =
    List.filter_map
      (fun m ->
        if m.tier <> tier then None
        else
          match List.assoc_opt m.name metrics with
          | Some v when Float.is_finite v -> Some (m, v)
          | Some _ | None ->
              (* A layer the workload bypasses reads 0; an end-to-end
                 metric must always be measured. *)
              if tier = End_to_end then Measure.fail c "metric %s was not measured" m.name;
              Some (m, 0.0))
      catalogue
  in
  if tier = End_to_end then
    List.iter
      (fun (m, v) -> if not (v > 0.0) then Measure.fail c "metric %s is not positive" m.name)
      values;
  Option.iter
    (fun path ->
      let doc = report_json ~w ~ctx ~correct:(c.failed = 0) c metrics in
      match Obs.Export.validate_json doc with
      | Ok () -> Out_channel.with_open_text path (fun oc -> output_string oc (doc ^ "\n"))
      | Error e -> Measure.fail c "--json report is not valid JSON: %s" e)
    json;
  let correct = c.failed = 0 in
  List.iter (fun p -> prerr_endline ("perf: check failed: " ^ p)) (List.rev c.problems);
  Printf.printf "workload %s, seed %d, %s, %d attempted, %d failed\n" w.name ctx.Measure.seed
    (if ctx.Measure.trace then "traced" else "untraced")
    c.attempted c.failed;
  List.iter (fun (m, v) -> Printf.printf "  %-36s %14.6g %s\n" m.name v m.unit_) values;
  print_endline (result_line ~correct c values);
  if correct then 0 else 1

(* ------------------------- list and manifest ----------------------- *)

let list () =
  print_endline "workloads:";
  List.iter
    (fun (w : Workloads.workload) -> Printf.printf "  %-16s %s\n" w.name w.summary)
    Workloads.all;
  List.iter
    (fun (title, tier) ->
      Printf.printf "%s metrics:\n" title;
      List.iter
        (fun m -> if m.tier = tier then Printf.printf "  %-36s %-7s %s\n" m.name m.unit_ m.better)
        catalogue)
    [ ("end-to-end", End_to_end); ("per-layer", Per_layer) ];
  0

let count_occurrences text sub =
  let n = String.length text and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc else go (i + 1) (if String.sub text i m = sub then acc + 1 else acc)
  in
  go 0 0

(* BENCHMARK.json must name exactly this program's workloads and metrics,
   with the same units and directions. *)
let check_manifest path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let entries =
    List.map (fun (w : Workloads.workload) -> Printf.sprintf "{\"name\": %s, \"why\": " (json_string w.name)) Workloads.all
    @ List.map
        (fun m ->
          Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s" (json_string m.name)
            (json_string m.unit_) (json_string m.better)
            (if m.tier = End_to_end then ", \"bound\": " else "}"))
        catalogue
  in
  let problems =
    (match Obs.Export.validate_json text with Ok () -> [] | Error e -> [ "invalid JSON: " ^ e ])
    @ List.filter_map
        (fun e -> if count_occurrences text e > 0 then None else Some ("missing entry " ^ e))
        entries
    @
    let named = count_occurrences text "\"name\": " in
    if named = List.length entries then []
    else [ Printf.sprintf "%d named entries, expected %d" named (List.length entries) ]
  in
  List.iter (fun p -> prerr_endline ("perf: " ^ path ^ ": " ^ p)) problems;
  if problems = [] then 0 else 1

(* ------------------------------- CLI ------------------------------- *)

let usage =
  "usage: perf.exe list | check-manifest FILE | (run|trace) WORKLOAD [--seed N] [--seconds S] \
   [--smoke] [--json FILE]"

let () =
  let bad msg =
    prerr_endline ("perf: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let rec options ctx seconds json = function
    | [] -> (ctx, seconds, json)
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some seed -> options { ctx with Measure.seed } seconds json rest
        | None -> bad ("bad --seed " ^ n))
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when Float.is_finite s && s >= 0.0 -> options ctx (Some s) json rest
        | Some _ | None -> bad ("bad --seconds " ^ v))
    | "--smoke" :: rest -> options { ctx with Measure.smoke = true } seconds json rest
    | "--json" :: path :: rest -> options ctx seconds (Some path) rest
    | arg :: _ -> bad ("unexpected argument " ^ arg)
  in
  let workload name =
    match List.find_opt (fun (w : Workloads.workload) -> String.equal w.name name) Workloads.all with
    | Some w -> w
    | None -> bad ("unknown workload " ^ name)
  in
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | [ "list" ] -> list ()
    | [ "check-manifest"; path ] -> check_manifest path
    | ("run" | "trace") as mode :: name :: rest ->
        let w = workload name in
        let trace = String.equal mode "trace" in
        let ctx = { Measure.seed = Measure.default_seed; seconds = 0.0; smoke = false; trace } in
        let ctx, seconds, json = options ctx None None rest in
        (* A smoke run does the minimum rounds unless told otherwise. *)
        let default = if ctx.Measure.smoke then 0.0 else 10.0 in
        run w { ctx with Measure.seconds = Option.value seconds ~default } json
    | _ -> bad "missing command"
  in
  exit code
