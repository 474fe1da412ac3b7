(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index). Engineering
   measurements (serving, memoization, per-layer costs) live in the repo
   benchmark under bench/perf.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig5    # selected sections
     dune exec bench/main.exe -- --json BENCH_obs.json fig5 micro
     REPRO_FAST=1 dune exec bench/main.exe   # reduced traces, seconds not minutes *)

let sections : (string * (unit -> unit)) list =
  [
    ("fig1a", Figures.fig1a);
    ("fig1b", Figures.fig1b);
    ("fig2a", Figures.fig2a);
    ("fig2b", Figures.fig2b);
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8a", Figures.fig8a);
    ("fig8b", Figures.fig8b);
    ("fig9", Figures.fig9);
    ("latency", Figures.latency);
    ("capacity", Figures.capacity);
    ("stress", Figures.stress);
    ("ablations", Figures.ablations);
    ("deploy", Extensions.deploy);
    ("peaks", Extensions.peaks);
    ("sleep", Extensions.sleep_states);
    ("switching", Extensions.switching);
    ("butterfly", Extensions.butterfly);
    ("openflow", Extensions.openflow);
    ("eate", Extensions.eate);
    ("chaos", Extensions.chaos);
    ("micro", Micro.run);
  ]

let valid_sections () = String.concat " " (List.map fst sections)

(* Sections are timed with Obs.Span so the harness shares the library's
   monotonic timing path; with --json the spans and every metric the run
   touched land in the report file. *)
let emit_json path timings total_s =
  let section_json (name, dur) =
    Printf.sprintf "{\"name\":\"%s\",\"seconds\":%.6f}" (Obs.Export.json_escape name) dur
  in
  let samples = Obs.Registry.snapshot Obs.Registry.default in
  let doc =
    Printf.sprintf "{\"sections\":[%s],\"total_seconds\":%.6f,\"obs\":%s}"
      (String.concat "," (List.map section_json timings))
      total_s
      (String.trim (Obs.Export.to_json samples))
  in
  (match Obs.Export.validate_json doc with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "bench: JSON report failed validation: %s\n" e;
      exit 1);
  Out_channel.with_open_text path (fun oc ->
      output_string oc doc;
      output_char oc '\n');
  Format.printf "wrote %s@." path

let () =
  let rec parse json names = function
    | [] -> (json, List.rev names)
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a file argument";
        exit 2
    | "--json" :: path :: rest -> parse (Some path) names rest
    | name :: rest -> parse json (name :: names) rest
  in
  let json, names = parse None [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match names with [] -> List.map fst sections | ns -> ns in
  (* A typo'd section name must fail loudly up front, not be skipped after
     hours of benching. *)
  (match List.filter (fun n -> not (List.mem_assoc n sections)) requested with
  | [] -> ()
  | unknown ->
      List.iter (fun n -> Printf.eprintf "bench: unknown section %S\n" n) unknown;
      Printf.eprintf "valid sections: %s\n" (valid_sections ());
      exit 2);
  if json <> None then Obs.set_enabled true;
  let timings = ref [] in
  let (), total_s =
    Obs.Span.timed "bench.total" (fun () ->
        List.iter
          (fun name ->
            match List.assoc_opt name sections with
            | None -> () (* unreachable: validated above *)
            | Some f ->
                let (), dur = Obs.Span.timed ("bench." ^ name) f in
                timings := (name, dur) :: !timings;
                Format.printf "  [%s done in %.1f s]@." name dur)
          requested)
  in
  Format.printf "@.All requested sections finished in %.1f s.@." total_s;
  match json with
  | None -> ()
  | Some path -> emit_json path (List.rev !timings) total_s
