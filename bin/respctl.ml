(* respctl — command-line front end to the REsPoNse library.

   respctl topo geant
   respctl tables geant --beta 0.25
   respctl power geant --load 10
   respctl replay geant --days 3
*)

open Cmdliner

open Cli_topo

let topology_arg =
  let doc = "Topology name (geant, abovenet, genuity, pop-access, fattree4, fattree8)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPOLOGY" ~doc)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for sampled pairs.")

(* Counts and lengths: zero or a negative value is a usage error. *)
let positive_int = checked Arg.int ~ok:(fun n -> n > 0) ~expected:"a positive number"
let positive_float = checked Arg.float ~ok:(fun x -> x > 0.0) ~expected:"a positive number"

(* The tables [build] precomputes for the sampled [pairs], passed to [f]. A
   precompute that fails (the always-on demands do not fit the sample, say)
   is one line on stderr naming the command and the sample, and exit 1, as
   an unknown topology is. *)
let with_tables cmd ~pairs build f =
  match build () with
  | tables -> f tables
  | exception Invalid_argument msg ->
      let nodes = List.sort_uniq Int.compare (List.concat_map (fun (o, d) -> [ o; d ]) pairs) in
      Format.eprintf "%s: cannot precompute tables for %d sampled node(s), %d pair(s): %s@." cmd
        (List.length nodes) (List.length pairs) msg;
      1

let beta_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "beta" ] ~docv:"BETA" ~doc:"REsPoNse-lat latency bound (e.g. 0.25).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan certified parallel loops out over $(docv) domains (Eutil.Pool). Output is \
           byte-identical for any $(docv).")

(* ------------------------- observability dump ------------------------ *)

let metrics_enum = [ ("text", `Text); ("json", `Json); ("prom", `Prom) ]

let metrics_opt_arg =
  Arg.(
    value
    & opt (some (enum metrics_enum)) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:"Enable observability for the run and dump the collected metrics (text, json or prom).")

let render_metrics fmt =
  match fmt with
  | `Text -> Obs.Export.to_text (Obs.Registry.snapshot Obs.Registry.default)
  | `Json -> Obs.Export.to_json (Obs.Registry.snapshot Obs.Registry.default)
  (* Shared with respctld's scrape endpoint so the two outputs can never
     drift (pinned by a test). *)
  | `Prom -> Obs.Export.prometheus_page ()

let obs_enable_for = function Some _ -> Obs.set_enabled true | None -> ()

let obs_dump_for = function Some fmt -> print_string (render_metrics fmt) | None -> ()

(* ------------------------------- topo ------------------------------- *)

let topo_cmd =
  let run name =
    with_topology name (fun t g ->
        let power = power_of t g in
        Format.printf "%s: %a@." t.tname Topo.Graph.pp g;
        Format.printf "full power: %.2f kW (%s)@."
          (Eutil.Units.to_float (Power.Model.full power g) /. 1e3)
          power.Power.Model.description;
        let by_role = Hashtbl.create 8 in
        Topo.Graph.fold_nodes g ~init:() ~f:(fun () n ->
            let r = Topo.Graph.role_to_string (Topo.Graph.role g n) in
            Hashtbl.replace by_role r (1 + Option.value (Hashtbl.find_opt by_role r) ~default:0));
        Hashtbl.fold (fun r c acc -> (r, c) :: acc) by_role []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (r, c) -> Format.printf "  %-14s %d@." r c);
        0)
  in
  let doc = "Describe a topology and its power envelope." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ topology_arg)

(* ------------------------------ tables ------------------------------ *)

let tables_cmd =
  let run name seed fraction beta jobs =
    with_topology name (fun t g ->
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        let config = { Response.Framework.default with latency_beta = beta } in
        with_tables "tables" ~pairs
          (fun () -> Response.Framework.precompute_cached ~config ~jobs g power ~pairs)
          (fun tables ->
            Format.printf "%a@." Response.Tables.pp tables;
            let ao = Response.Tables.always_on_state tables in
            Format.printf "always-on footprint: %a (%.1f%% of full power)@." (Topo.State.pp g) ao
              (Power.Model.percent_of_full power g ao);
            let vulnerable = Response.Failover.vulnerable_pairs g tables in
            Format.printf "pairs vulnerable to a single link failure: %d of %d@."
              (List.length vulnerable)
              (List.length (Response.Tables.pairs tables));
            (match Response.Tables.entries tables with
            | e :: _ ->
                Format.printf "@.example entry %s -> %s:@."
                  (Topo.Graph.name g e.Response.Tables.origin)
                  (Topo.Graph.name g e.Response.Tables.dest);
                Array.iteri
                  (fun i p -> Format.printf "  path %d: %a@." i (Topo.Path.pp g) p)
                  (Response.Tables.paths e)
            | [] -> ());
            0))
  in
  let doc = "Precompute the always-on / on-demand / failover tables." in
  Cmd.v (Cmd.info "tables" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ beta_arg $ jobs_arg)

(* ------------------------------- power ------------------------------ *)

let power_cmd =
  let load_arg =
    Arg.(
      value & opt float 5.0 & info [ "load" ] ~docv:"GBPS" ~doc:"Total offered load in Gbit/s.")
  in
  let run name seed fraction load metrics =
    with_topology name (fun t g ->
        obs_enable_for metrics;
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        with_tables "power" ~pairs
          (fun () -> Response.Framework.precompute_cached g power ~pairs)
          (fun tables ->
            let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps load) () in
            let e = Response.Framework.evaluate tables power tm in
            Format.printf "offered load:     %.2f Gbit/s@." load;
            Format.printf "network power:    %.1f%% of full (%.2f kW)@."
              e.Response.Framework.power_percent
              (e.Response.Framework.power_watts /. 1e3);
            Format.printf "max utilisation:  %.2f@." e.Response.Framework.max_utilization;
            Format.printf "on-demand levels: %d@." e.Response.Framework.levels_activated;
            Format.printf "congested pairs:  %d@." (List.length e.Response.Framework.congested);
            (match Optim.Minimal.power_down g power tm with
            | Some opt ->
                Format.printf "optimal subset:   %.1f%% of full power@."
                  opt.Optim.Minimal.power_percent
            | None -> Format.printf "optimal subset:   demand infeasible@.");
            obs_dump_for metrics;
            0))
  in
  let doc = "Evaluate the steady-state power for a gravity demand." in
  Cmd.v (Cmd.info "power" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ load_arg $ metrics_opt_arg)

(* ------------------------------ replay ------------------------------ *)

let replay_cmd =
  let days_arg =
    Arg.(
      value & opt positive_int 3 & info [ "days" ] ~docv:"DAYS" ~doc:"Length of the synthetic trace.")
  in
  let run name seed fraction days metrics =
    with_topology name (fun t g ->
        obs_enable_for metrics;
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        let trace = Traffic.Synth.geant_like g ~days ~pairs () in
        let r = Response.Replay.run g power trace in
        Format.printf "replayed intervals: %d, configuration changes: %d@."
          (Array.length r.Response.Replay.intervals)
          r.Response.Replay.recomputations;
        Format.printf "mean optimal power: %.1f%%@." (Response.Replay.mean_power_percent r);
        let dom = Response.Replay.config_dominance r in
        Format.printf "distinct configurations: %d (dominant %.0f%%)@." (List.length dom)
          (100.0 *. match dom with (_, f) :: _ -> f | [] -> 0.0);
        Format.printf "@.energy-critical path coverage:@.";
        List.iter
          (fun (x, c) -> Format.printf "  top-%d paths: %.1f%%@." x c)
          (Response.Critical_paths.coverage_curve r.Response.Replay.ranking ~max:5);
        obs_dump_for metrics;
        0)
  in
  let doc = "Replay a synthetic demand trace with per-interval recomputation." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ days_arg $ metrics_opt_arg)


(* ------------------------------ analyze ----------------------------- *)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let report_findings ~json findings =
  if json then print_string (Check.Finding.to_json findings)
  else List.iter (fun f -> Format.printf "%a@." Check.Finding.pp f) findings

let analyze_cmd =
  let dirs_arg =
    let doc =
      "Files or directories to analyze (default: lib bin — the shipped tree; tests and benches \
       legitimately use literal expectations)."
    in
    Arg.(value & pos_all string [ "lib"; "bin" ] & info [] ~docv:"PATH" ~doc)
  in
  let entries_arg =
    let doc =
      "Additional entry-point trees (executables/tests/examples): the lint and doc passes check \
       them, and the definitions of executables seed reachability for dead-function; a tree \
       under a (test) or (tests) dune stanza seeds nothing, so code that only tests call is \
       dead. The other passes do not analyze them. Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "entries" ] ~docv:"PATH" ~doc)
  in
  let manifest_arg =
    let doc =
      "Analyze manifest (check/analyze.json): a JSON object with optional sections \"budget\" \
       (rule id to allowed warn-finding count; exceeding it is an error, and rules absent from \
       it allow zero), \"parallel\" (region name to certified parallel entrypoints, for \
       Check.Share), \"cost\" (\"hot\" and \"memo\" entrypoints, for Check.Cost) and \"locks\" \
       (\"order\", \"io_locks\", \"hot\" and \"surface\", for Check.Lock). Every pass runs \
       without it; the manifest only supplies declarations and turns on the budget ratchet."
    in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let list_rules_arg =
    Arg.(
      value
      & flag
      & info [ "list-rules" ]
          ~doc:
            "List every analyze rule (lint/flow/effect/share/cost/lock/doc) with its pass, \
             severity and manifest section, then exit.")
  in
  let sarif_arg =
    let doc =
      "Also write every pass's findings to $(docv) as SARIF 2.1.0 (one run, rule table from \
       --list-rules), for CI and editor ingestion. Exit codes are unchanged."
    in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  let catalogue =
    [
      ("lint", Check.Srclint.rules);
      ("flow", Check.Flow.rules);
      ("effect", Check.Effect.rules);
      ("share", Check.Share.rules);
      ("cost", Check.Cost.rules);
      ("lock", Check.Lock.rules);
      ("doc", Check.Doc.rules);
    ]
  in
  let run dirs entries manifest_file sarif json full_list =
    if full_list then begin
      Format.printf "%-6s %-24s %-6s %-20s %s@." "PASS" "RULE" "SEV" "RATCHET" "DESCRIPTION";
      List.iter
        (fun (pass, rules) ->
          List.iter
            (fun (r : Check.Finding.rule) ->
              Format.printf "%-6s %-24s %-6s %-20s %s@." pass r.id
                (match r.level with Check.Finding.Warn -> "warn" | Error -> "error")
                r.section r.doc)
            rules)
        catalogue;
      0
    end
    else begin
      match
        List.filter
          (fun p -> not (Sys.file_exists p))
          (dirs @ entries @ Option.to_list manifest_file)
      with
      | p :: _ ->
          Format.eprintf "analyze: no such path %s@." p;
          2
      | [] -> (
          let manifest =
            match manifest_file with
            | None -> Ok Check.Manifest.empty
            | Some file ->
                Check.Manifest.parse (Check.Srclint.read_file file)
                |> Result.map_error (fun e -> file ^ ": " ^ Check.Manifest.error_to_string e)
          in
          match manifest with
          | Error msg ->
              Format.eprintf "analyze: %s@." msg;
              2
          | Ok m -> (
              let graph = Check.Callgraph.build ~entries dirs in
              let effect = Check.Effect.analyze graph in
              let where = manifest_file in
              let share = Check.Share.analyze ?where ~manifest:m.parallel graph in
              let cost = Check.Cost.analyze ?where ~manifest:m.cost graph in
              let lock = Check.Lock.analyze ?where ~manifest:m.locks graph in
              let ratchet =
                match manifest_file with
                | None -> []
                | Some where ->
                    Check.Manifest.over_budget ~where ~budget:m.budget
                      (effect @ share @ cost @ lock)
              in
              let passes =
                [
                  ("lint", Check.Callgraph.per_file graph Check.Srclint.lint);
                  ("flow", Check.Callgraph.per_file ~entry_trees:false graph Check.Flow.analyze);
                  ("effect", effect);
                  ("share", share);
                  ("cost", cost);
                  ("lock", lock);
                  ("doc", Check.Callgraph.per_file graph Check.Doc.check);
                  ("ratchet", ratchet);
                ]
              in
              let findings = List.concat_map snd passes in
              let sarif_status =
                match sarif with
                | None -> Ok ()
                | Some file -> (
                    let rules = List.concat_map snd catalogue in
                    let doc = Check.Finding.to_sarif ~rules findings in
                    match Obs.Export.validate_json doc with
                    | Error e -> Error (Printf.sprintf "SARIF report failed validation: %s" e)
                    | Ok () -> (
                        try
                          let oc = open_out file in
                          output_string oc doc;
                          close_out oc;
                          Ok ()
                        with Sys_error e -> Error e))
              in
              match sarif_status with
              | Error e ->
                  Format.eprintf "analyze: %s@." e;
                  2
              | Ok () -> (
                  if json then begin
                    let doc = Check.Finding.to_json_document passes in
                    match Obs.Export.validate_json doc with
                    | Error e ->
                        Format.eprintf "analyze: JSON report failed validation: %s@." e;
                        2
                    | Ok () ->
                        print_string doc;
                        if Check.Finding.errors findings = [] then 0 else 1
                  end
                  else
                    match findings with
                    | [] ->
                        Format.printf "analyze: clean@.";
                        0
                    | fs ->
                        report_findings ~json:false fs;
                        Format.printf "analyze: %d finding(s), %d error(s)@." (List.length fs)
                          (List.length (Check.Finding.errors fs));
                        if Check.Finding.errors fs = [] then 0 else 1)))
    end
  in
  let doc =
    "Static analysis of the OCaml sources, each file walked and lexed once: the banned-pattern \
     linter (Check.Srclint), numeric-safety dataflow (Check.Flow), interprocedural effect \
     inference over the call graph (Check.Callgraph, Check.Effect), the domain-safety \
     shared-mutable-state audit (Check.Share), the loop-cost and allocation analysis \
     (Check.Cost), the lock-discipline audit (Check.Lock) and doc-comment validation, the odoc \
     stand-in (Check.Doc)."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ dirs_arg $ entries_arg $ manifest_arg $ sarif_arg $ json_arg $ list_rules_arg)

(* ------------------------------- check ------------------------------ *)

let check_cmd =
  let run name seed fraction beta json =
    with_topology name (fun t g ->
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        (* Collect findings ourselves instead of letting precompute raise on
           the first error, so the report is complete. *)
        let saved = Atomic.get Response.Framework.install_checks in
        Atomic.set Response.Framework.install_checks false;
        with_tables "check" ~pairs
          (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set Response.Framework.install_checks saved)
              (fun () ->
                let config = { Response.Framework.default with latency_beta = beta } in
                Response.Framework.precompute ~config g power ~pairs))
          (fun tables ->
            let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 1.0) () in
            let findings =
              Check.Invariant.check_graph g
              @ Check.Invariant.check_power power g
              @ Response.Framework.table_findings g ~pairs tables
              @ Check.Invariant.check_matrix g tm
            in
            report_findings ~json findings;
            let errors = Check.Finding.errors findings in
            if not json then
              Format.printf "check: %d error(s), %d warning(s) over %d pairs@."
                (List.length errors)
                (List.length findings - List.length errors)
                (List.length pairs);
            if errors = [] then 0 else 1))
  in
  let doc = "Validate domain invariants (graph, tables, power, traffic) for a topology." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ beta_arg $ json_arg)

(* ------------------------------- stats ------------------------------ *)

(* A fixed workload that touches every instrumented layer: precompute and
   evaluate (routing + core + power), a node-bounded exact MILP (lp), and a
   short simulator scenario whose demand swing forces TE shifts, wake
   transitions and idle sleeps (te + netsim). *)
let stats_workload g power ~pairs tables =
  let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let _ = Response.Framework.evaluate tables power tm in
  (* The exact formulation is only tractable for small instances (see
     Optim.Formulation), so the LP layer is exercised on the paper's Fig. 3
     example network rather than the selected topology. *)
  let ex = Topo.Example.make () in
  let exg = ex.Topo.Example.graph in
  let milp_flow = Eutil.Units.to_float (Eutil.Units.mbps 4.0) in
  let milp_tm =
    Traffic.Matrix.of_flows (Topo.Graph.node_count exg)
      [
        (ex.Topo.Example.a, ex.Topo.Example.k, milp_flow);
        (ex.Topo.Example.c, ex.Topo.Example.k, milp_flow);
      ]
  in
  let _ = Optim.Formulation.solve ~max_nodes:64 exg (Power.Model.cisco12000 exg) milp_tm in
  (* Scenario built to cross every TE and sleep/wake code path: load the
     network, fail a loaded always-on link (failover shift + wakes of the
     alternates), repair it (it re-enters asleep), go fully idle (idle
     timeouts put links to sleep), then bring the demand back (data-plane
     wakes). *)
  let cap_sum =
    Topo.Graph.fold_links g ~init:0.0 ~f:(fun acc l -> acc +. Topo.Graph.link_capacity g l)
  in
  let high = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps (0.3 *. cap_sum)) () in
  let idle = Traffic.Matrix.create (Topo.Graph.node_count g) in
  let victim =
    match Response.Tables.entries tables with
    | e :: _ -> Some (Topo.Path.links g e.Response.Tables.always_on).(0)
    | [] -> None
  in
  let failure =
    match victim with
    | Some l -> [ Netsim.Sim.Fail_link (0.5, l); Netsim.Sim.Repair_link (1.5, l) ]
    | None -> []
  in
  let config =
    {
      Netsim.Sim.default_config with
      Netsim.Sim.idle_timeout = 0.4;
      sample_interval = 0.1;
      te =
        {
          Response.Te.default_config with
          Response.Te.hysteresis = Eutil.Units.seconds 0.2;
          shift_fraction = Eutil.Units.ratio 0.5;
        };
    }
  in
  let r =
    Netsim.Sim.run ~config ~tables ~power
      ~events:
        (failure
        @ [
            Netsim.Sim.Set_demand (0.0, high);
            Netsim.Sim.Set_demand (2.0, idle);
            Netsim.Sim.Set_demand (3.0, high);
          ])
      ~duration:4.0 ()
  in
  r

let stats_cmd =
  let fmt_arg =
    Arg.(
      value
      & opt (enum metrics_enum) `Text
      & info [ "metrics" ] ~docv:"FORMAT" ~doc:"Output format: text, json or prom.")
  in
  let validate_arg =
    Arg.(
      value
      & flag
      & info [ "validate" ]
          ~doc:"Also check that the JSON export is well-formed; exit non-zero if not.")
  in
  let spans_arg =
    Arg.(value & flag & info [ "spans" ] ~doc:"Print the span trace tree after the metrics.")
  in
  let run name seed fraction fmt validate spans =
    with_topology name (fun t g ->
        Obs.set_enabled true;
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        with_tables "stats" ~pairs
          (fun () -> Response.Framework.precompute_cached g power ~pairs)
          (fun tables ->
            let r = stats_workload g power ~pairs tables in
            ignore r.Netsim.Sim.mean_power_percent;
            print_string (render_metrics fmt);
            if spans then print_string ("\n" ^ Obs.Span.to_text ());
            if validate then begin
              match Obs.Export.validate_json (render_metrics `Json) with
              | Ok () -> 0
              | Error e ->
                  Format.eprintf "stats: JSON export invalid: %s@." e;
                  1
            end
            else 0))
  in
  let doc =
    "Run an instrumented workload (precompute, evaluate, bounded exact MILP, simulator \
     scenario) and dump the collected metrics."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ fmt_arg $ validate_arg $ spans_arg)

(* ------------------------------- chaos ------------------------------ *)

let chaos_cmd =
  let trials_arg =
    Arg.(
      value
      & opt positive_int 3
      & info [ "trials" ] ~docv:"K" ~doc:"Independent trials (seed, seed+1, ...).")
  in
  let mtbf_arg =
    Arg.(
      value
      & opt positive_float 3.0
      & info [ "mtbf" ] ~docv:"S" ~doc:"Per-link mean time between failures, seconds.")
  in
  let mttr_arg =
    Arg.(
      value
      & opt positive_float 0.5
      & info [ "mttr" ] ~docv:"S" ~doc:"Per-link mean time to repair, seconds.")
  in
  let node_mtbf_arg =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "node-mtbf" ] ~docv:"S"
          ~doc:"Enable node (chassis) failures with this MTBF; all incident links fail together.")
  in
  let node_mttr_arg =
    Arg.(
      value
      & opt positive_float 1.0
      & info [ "node-mttr" ] ~docv:"S" ~doc:"Node mean time to repair, seconds.")
  in
  let duration_arg =
    Arg.(
      value
      & opt positive_float 10.0
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds per trial.")
  in
  let load_arg =
    Arg.(
      value & opt float 5.0 & info [ "load" ] ~docv:"GBPS" ~doc:"Total offered load in Gbit/s.")
  in
  let flap_arg =
    Arg.(
      value
      & flag
      & info [ "flap" ] ~doc:"Add a flapping link (chosen from the seed) cycling every second.")
  in
  let srlg_arg =
    Arg.(
      value
      & opt int 0
      & info [ "srlg" ] ~docv:"N"
          ~doc:"Add $(docv) random shared-risk groups of two links failing together.")
  in
  let surge_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "surge" ] ~docv:"FACTOR"
          ~doc:"Scale the demand by $(docv) for a fifth of the run, starting mid-run.")
  in
  let run name seed fraction trials mtbf mttr node_mtbf node_mttr duration load flap srlg
      surge jobs json =
    with_topology name (fun t g ->
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        with_tables "chaos" ~pairs
          (fun () -> Response.Framework.precompute_cached g power ~pairs)
          (fun tables ->
            let base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps load) () in
            let spec =
              {
                Fault.Scenario.default with
                Fault.Scenario.seed;
                duration;
                link_faults = Some { Fault.Scenario.mtbf; mttr };
                node_faults =
                  Option.map (fun m -> { Fault.Scenario.mtbf = m; mttr = node_mttr }) node_mtbf;
                srlgs =
                  (if srlg <= 0 then []
                   else
                     Fault.Scenario.random_srlgs g
                       (Eutil.Prng.create (seed lxor 0x5126))
                       ~groups:srlg ~size:2);
                srlg_faults =
                  (if srlg <= 0 then None
                   else Some { Fault.Scenario.mtbf = mtbf *. 2.0; mttr });
                flapping =
                  (if flap then
                     Some
                       {
                         Fault.Scenario.flap_link = None;
                         flap_period = 1.0;
                         flap_cycles = int_of_float duration;
                         flap_start = duration /. 4.0;
                       }
                   else None);
                surges =
                  (match surge with
                  | None -> []
                  | Some f ->
                      [
                        {
                          Fault.Scenario.surge_at = duration /. 2.0;
                          surge_factor = f;
                          surge_duration = duration /. 5.0;
                        };
                      ]);
              }
            in
            let report = Fault.Harness.run ~jobs ~tables ~power ~base ~spec ~trials () in
            if json then print_string (Fault.Harness.to_json report ^ "\n")
            else begin
              let open Fault.Harness in
              Format.printf "chaos %s: %d trial(s) x %.1f s, base seed %d@." t.tname trials duration
                report.base_seed;
              Format.printf "availability:      %.4f (%d outage(s))@." report.availability
                report.outages;
              Format.printf "delivered:         %.2f%% of offered traffic (lost %.3e bits)@."
                (100.0 *. report.delivered_fraction)
                report.lost_bits;
              Format.printf "recovery time:     p50 %.2f s, p99 %.2f s, max %.2f s@."
                report.recovery_p50 report.recovery_p99 report.recovery_max;
              Format.printf "sleep ratio:       %.3f (mean power %.1f%% of full)@."
                report.sleep_ratio report.mean_power_percent;
              Format.printf "rejected wakes:    %d@." report.rejected_wakes;
              Format.printf "fallback routes:   %d@." report.fallback_routes
            end;
            0))
  in
  let doc =
    "Run seeded fault-injection trials (link/node/SRLG failures, flaps, surges) through the \
     simulator and report availability, loss and recovery times."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ topology_arg $ seed_arg $ fraction_arg $ trials_arg $ mtbf_arg $ mttr_arg
      $ node_mtbf_arg $ node_mttr_arg $ duration_arg $ load_arg $ flap_arg $ srlg_arg
      $ surge_arg $ jobs_arg $ json_arg)

(* ------------------------------ export ------------------------------ *)

let export_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("csv", `Csv); ("trace", `Trace) ]) `Dot
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Output: dot (Graphviz), csv (links), trace (synthetic demand trace CSV).")
  in
  let days_arg =
    Arg.(
      value & opt positive_int 1 & info [ "days" ] ~docv:"DAYS" ~doc:"Trace length for --format trace.")
  in
  let run name seed fraction format days =
    with_topology name (fun _t g ->
        (match format with
        | `Dot -> print_string (Topo.Export.to_dot g)
        | `Csv -> print_string (Topo.Export.to_csv g)
        | `Trace ->
            let pairs = pairs_of g ~seed ~fraction in
            let trace = Traffic.Synth.geant_like g ~days ~pairs () in
            print_string (Traffic.Trace_io.to_csv trace));
        0)
  in
  let doc = "Export a topology (DOT/CSV) or a synthetic demand trace (CSV) to stdout." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ format_arg $ days_arg)

(* ------------------------------- query ------------------------------ *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"respctld address (an IP literal).")

let port_arg =
  Arg.(value & opt int 4710 & info [ "port" ] ~docv:"PORT" ~doc:"respctld binary-protocol port.")

let query_cmd =
  let origin_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ORIGIN" ~doc:"Origin node name.")
  in
  let dest_arg =
    Arg.(
      required & pos 2 (some string) None & info [] ~docv:"DEST" ~doc:"Destination node name.")
  in
  let run name origin dest host port =
    with_topology name (fun _t g ->
        match (Topo.Graph.node_of_name g origin, Topo.Graph.node_of_name g dest) with
        | exception Invalid_argument msg ->
            Format.eprintf "query: %s@." msg;
            2
        | o, d -> (
            (* Path queries are idempotent: bounded connect/reply
               deadlines plus seeded-backoff retries, so a wedged or
               briefly-overloaded daemon degrades into a clean error. *)
            match
              Serve.Client.request ~host ~connect_timeout_s:2.0 ~timeout_s:5.0
                ~retry:Serve.Client.default_retry ~port
                (Serve.Wire.Path_query { origin = o; dest = d })
            with
            | Error e ->
                Format.eprintf "query: %s@." e;
                2
                | Ok (Serve.Wire.Path_reply { status = Serve.Wire.Path_ok; level; nodes }) ->
                    Format.printf "%s -> %s: level %d, %s@." origin dest level
                      (String.concat "-" (List.map (Topo.Graph.name g) nodes));
                    0
                | Ok (Serve.Wire.Path_reply { status = Serve.Wire.Unknown_pair; _ }) ->
                    Format.printf "%s -> %s: no installed tables for this pair@." origin dest;
                    1
                | Ok (Serve.Wire.Path_reply { status = Serve.Wire.No_usable_path; _ }) ->
                    Format.printf "%s -> %s: every installed path crosses a failed link@." origin
                      dest;
                    1
                | Ok (Serve.Wire.Error_reply { message; _ }) ->
                    Format.eprintf "query: server rejected the request: %s@." message;
                    1
                | Ok _ ->
                    Format.eprintf "query: unexpected reply type@.";
                    1))
  in
  let doc = "Ask a running respctld which installed path a pair uses right now." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ topology_arg $ origin_arg $ dest_arg $ host_arg $ port_arg)

(* ------------------------------- load ------------------------------- *)

let load_cmd =
  let conns_arg =
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N" ~doc:"Concurrent closed-loop connections.")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "rate" ] ~docv:"QPS" ~doc:"Target aggregate request rate (0 = open throttle).")
  in
  let duration_arg =
    Arg.(value & opt float 3.0 & info [ "duration" ] ~docv:"S" ~doc:"Seconds to keep issuing.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int 0
      & info [ "requests" ] ~docv:"N"
          ~doc:"Fixed request count; when positive it overrides $(b,--duration).")
  in
  let reload_at_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "reload-at" ] ~docv:"S"
          ~doc:
            "Send a reload over a control connection this many seconds into the run (hot-swap \
             under load).")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-p99" ] ~docv:"MS"
          ~doc:"Exit non-zero if the p99 query latency exceeds $(docv) milliseconds.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "timeout" ] ~docv:"S"
          ~doc:"Per-attempt reply deadline; a miss replaces the connection and retries (0 \
                disables).")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget per query for timeouts and overload/deadline rejections.")
  in
  let run name host port conns rate duration requests reload_at slo timeout retries seed
      fraction json =
    with_topology name (fun _t g ->
        let pairs = Array.of_list (pairs_of g ~seed ~fraction) in
        let cfg =
          {
            Serve.Load.default with
            Serve.Load.host;
            port;
            conns;
            rate;
            duration_s = duration;
            requests;
            pairs;
            reload_at;
            timeout_s = timeout;
            retries;
            seed;
          }
        in
        match Serve.Load.run cfg with
        | Error e ->
            Format.eprintf "load: %s@." e;
            2
        | Ok r ->
            if json then print_string (Serve.Load.to_json r ^ "\n")
            else Format.printf "%a@." Serve.Load.pp r;
            let slo_violated =
              match slo with Some budget -> r.Serve.Load.p99_ms > budget | None -> false
            in
            if slo_violated then
              Format.eprintf "load: p99 %.3f ms exceeds the %.3f ms SLO@." r.Serve.Load.p99_ms
                (Option.value slo ~default:0.0);
            (* [failed] already folds in requests whose shed/timeout
               retries never recovered, so backpressure the run could
               not absorb fails the gate. *)
            if r.Serve.Load.failed > 0 || r.Serve.Load.wrong > 0 || slo_violated then 1 else 0)
  in
  let doc =
    "Drive a running respctld with a closed-loop workload and report delivered QPS, exact \
     latency percentiles, and timeout/retry/shed counts, optionally enforcing a p99 SLO. \
     Retries use seeded exponential backoff; a circuit breaker keeps an unreachable server \
     from hanging the run."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ topology_arg $ host_arg $ port_arg $ conns_arg $ rate_arg $ duration_arg
      $ requests_arg $ reload_at_arg $ slo_arg $ timeout_arg $ retries_arg $ seed_arg
      $ fraction_arg $ json_arg)

(* ---------------------------- chaos-serve --------------------------- *)

(* Per-fault probe tally: every probe lands in exactly one class, and the
   drill's invariant is that the wrong class stays empty — a mangled
   frame may fail transport or earn a typed protocol error, never a
   bogus reply and never a daemon crash. *)
type fault_row = {
  fr_name : string;
  fr_ok : int;  (* well-formed path replies *)
  fr_typed : int;  (* typed Error_reply frames from the daemon *)
  fr_transport : int;  (* resets, EOFs, timeouts absorbed by the client *)
  fr_wrong : int;  (* replies of an impossible type *)
  fr_recovered : bool;  (* a clean probe succeeds once the fault clears *)
  fr_alive : bool;  (* the daemon answers health off the faulty path *)
}

type journal_drill = {
  jd_replay : bool;  (* copied-at-kill journal rebuilds identical bytes *)
  jd_torn_detected : bool;  (* a half-written tail is flagged *)
  jd_torn_replay : bool;  (* ... and dropped without corrupting state *)
  jd_compacted : bool;  (* at least one checkpoint rewrite happened *)
}

(* Everything resolve-visible, byte-serialized: the reply frame of every
   sampled pair plus the evaluation figures (power as IEEE bits, so
   "byte-identical" means bit-identical, not approximately-equal). The
   snapshot version is deliberately excluded — a restart resets it. *)
let chaos_snapshot_bytes st pairs =
  let b = Buffer.create 1024 in
  List.iter
    (fun (origin, dest) ->
      let status, level, nodes = Serve.State.resolve st ~origin ~dest in
      Buffer.add_string b
        (Serve.Wire.encode_response (Serve.Wire.Path_reply { status; level; nodes })))
    pairs;
  let _version, levels, power_percent = Serve.State.figures st in
  Buffer.add_string b (string_of_int levels);
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float power_percent));
  Buffer.contents b

(* Simulated kill -9 + restart: run a journaled state, copy the journal
   file at an arbitrary instant (what a crash leaves behind), boot a
   second state from the copy and demand byte-identical resolution; then
   the same with a half-written record glued on the tail. *)
let chaos_journal_drill g power ~pairs ~demand =
  let read_file p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write_file p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  let remove_quiet p = try Sys.remove p with Sys_error _ -> () in
  let jpath = Filename.temp_file "respctl-chaos" ".journal" in
  let jcopy = jpath ^ ".crash" in
  let jtorn = jpath ^ ".torn" in
  let parr = Array.of_list pairs in
  let nothing =
    { jd_replay = false; jd_torn_detected = false; jd_torn_replay = false; jd_compacted = false }
  in
  let outcome =
    match Serve.Journal.open_ jpath with
    | Error _ -> nothing
    | Ok j ->
        let s1 = Serve.State.create ~journal:j g power ~pairs ~demand in
        let drill_step_bps = Eutil.Units.to_float (Eutil.Units.gbps 0.1) in
        let k = Int.min 4 (Array.length parr) in
        for i = 0 to k - 1 do
          let origin, dest = parr.(i) in
          ignore
            (Serve.State.update_demand s1 ~origin ~dest
               ~bps:(drill_step_bps *. float_of_int (i + 1)))
        done;
        ignore (Serve.State.set_link s1 ~link:0 ~up:false);
        ignore (Serve.State.reload s1);
        let b1 = chaos_snapshot_bytes s1 pairs in
        (* A post-checkpoint append that leaves the staged state bitwise
           unchanged: whether the crash image carries it as a checkpoint
           or as a trailing record, replay must land on the same state. *)
        (if k > 0 then begin
           let origin, dest = parr.(0) in
           ignore (Serve.State.update_demand s1 ~origin ~dest ~bps:drill_step_bps)
         end);
        let image = read_file jpath in
        Serve.State.stop s1;
        write_file jcopy image;
        let replay_ok =
          match Serve.Journal.open_ jcopy with
          | Error _ -> false
          | Ok j2 ->
              if Serve.Journal.torn j2 then begin
                Serve.Journal.close j2;
                false
              end
              else begin
                let s2 = Serve.State.create ~journal:j2 g power ~pairs ~demand in
                let b2 = chaos_snapshot_bytes s2 pairs in
                Serve.State.stop s2;
                String.equal b1 b2
              end
        in
        (* len claims 0x20 bytes but only nine follow: exactly the shape
           a power cut mid-append leaves behind. *)
        write_file jtorn (image ^ "\x00\x00\x00\x20torn-tail");
        let torn_detected, torn_replay =
          match Serve.Journal.open_ jtorn with
          | Error _ -> (false, false)
          | Ok j3 ->
              let detected = Serve.Journal.torn j3 in
              let s3 = Serve.State.create ~journal:j3 g power ~pairs ~demand in
              let b3 = chaos_snapshot_bytes s3 pairs in
              Serve.State.stop s3;
              (detected, String.equal b1 b3)
        in
        {
          jd_replay = replay_ok;
          jd_torn_detected = torn_detected;
          jd_torn_replay = torn_replay;
          jd_compacted = Obs.Metric.Counter.value Serve.Metrics.journal_compactions > 0.0;
        }
  in
  remove_quiet jpath;
  remove_quiet jcopy;
  remove_quiet jtorn;
  outcome

let chaos_serve_cmd =
  let probes_arg =
    Arg.(
      value
      & opt int 5
      & info [ "probes" ] ~docv:"N" ~doc:"Path queries probed through the proxy per fault.")
  in
  let faults =
    [|
      ("pass", Serve.Chaosproxy.Pass);
      ("delay", Serve.Chaosproxy.Delay 0.02);
      ("partial_write", Serve.Chaosproxy.Partial_write);
      ("truncate", Serve.Chaosproxy.Truncate 4);
      ("corrupt", Serve.Chaosproxy.Corrupt);
      ("reset", Serve.Chaosproxy.Reset);
      ("blackhole", Serve.Chaosproxy.Blackhole);
    |]
  in
  let run name seed fraction probes json =
    with_topology name (fun t g ->
        Obs.set_enabled true;
        let power = power_of t g in
        let pairs = pairs_of g ~seed ~fraction in
        let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
        match Serve.State.create g power ~pairs ~demand with
        | exception Invalid_argument msg ->
            Format.eprintf "chaos-serve: %s@." msg;
            2
        | state -> (
            let sconfig =
              { Serve.Server.default_config with Serve.Server.port = 0; http_port = 0; workers = 2 }
            in
            match Serve.Server.start ~config:sconfig state with
            | exception Unix.Unix_error (err, _, _) ->
                Serve.State.stop state;
                Format.eprintf "chaos-serve: %s@." (Unix.error_message err);
                2
            | server ->
                let proxy =
                  Serve.Chaosproxy.start ~seed ~upstream_port:(Serve.Server.port server) ()
                in
                let pport = Serve.Chaosproxy.port proxy in
                let dport = Serve.Server.port server in
                let parr = Array.of_list pairs in
                let npairs = Array.length parr in
                let probe_query ?(timeout_s = 0.5) ?retry ~port k =
                  let origin, dest = parr.(k mod npairs) in
                  Serve.Client.request ~connect_timeout_s:1.0 ~timeout_s ?retry ~port
                    (Serve.Wire.Path_query { origin; dest })
                in
                let run_fault (fname, f) =
                  Serve.Chaosproxy.set_fault proxy f;
                  let ok = ref 0 and typed = ref 0 in
                  let transport = ref 0 and wrong = ref 0 in
                  for k = 0 to probes - 1 do
                    match probe_query ~port:pport k with
                    | Ok (Serve.Wire.Path_reply _) -> incr ok
                    | Ok (Serve.Wire.Error_reply _) -> incr typed
                    | Ok _ -> incr wrong
                    | Error _ -> incr transport
                  done;
                  Serve.Chaosproxy.set_fault proxy Serve.Chaosproxy.Pass;
                  let recovered =
                    match
                      probe_query ~timeout_s:2.0 ~retry:Serve.Client.default_retry ~port:pport 0
                    with
                    | Ok (Serve.Wire.Path_reply _) -> true
                    | Ok _ | Error _ -> false
                  in
                  (* Health goes to the daemon directly, off the faulty
                     path: a fault must never take the process down. *)
                  let alive =
                    match
                      Serve.Client.request ~connect_timeout_s:1.0 ~timeout_s:2.0 ~port:dport
                        Serve.Wire.Health
                    with
                    | Ok (Serve.Wire.Health_reply _) -> true
                    | Ok _ | Error _ -> false
                  in
                  {
                    fr_name = fname;
                    fr_ok = !ok;
                    fr_typed = !typed;
                    fr_transport = !transport;
                    fr_wrong = !wrong;
                    fr_recovered = recovered;
                    fr_alive = alive;
                  }
                in
                let rows = Array.map run_fault faults in
                (* SLO recovery: once the fault window closes, a clean
                   closed-loop run through the proxy must deliver every
                   reply within a generous p99 bound. *)
                let slo_ok, slo_p99 =
                  let lcfg =
                    {
                      Serve.Load.default with
                      Serve.Load.host = "127.0.0.1";
                      port = pport;
                      conns = 2;
                      requests = 60;
                      pairs = parr;
                      timeout_s = 2.0;
                      retries = 2;
                      seed;
                    }
                  in
                  match Serve.Load.run lcfg with
                  | Error _ -> (false, Float.nan)
                  | Ok r ->
                      ( r.Serve.Load.failed = 0 && r.Serve.Load.wrong = 0
                        && r.Serve.Load.p99_ms < 250.0,
                        r.Serve.Load.p99_ms )
                in
                Serve.Chaosproxy.stop proxy;
                Serve.Server.stop server;
                Serve.State.stop state;
                let jd = chaos_journal_drill g power ~pairs ~demand in
                let crashes =
                  Array.fold_left (fun n r -> if r.fr_alive then n else n + 1) 0 rows
                in
                let wrong_replies = Array.fold_left (fun n r -> n + r.fr_wrong) 0 rows in
                let all_recovered = Array.for_all (fun r -> r.fr_recovered) rows in
                if json then begin
                  let b = Buffer.create 1024 in
                  Printf.bprintf b "{\"topology\":%S,\"seed\":%d,\"probes\":%d,\"faults\":["
                    t.tname seed probes;
                  Array.iteri
                    (fun i r ->
                      if i > 0 then Buffer.add_char b ',';
                      Printf.bprintf b
                        "{\"fault\":%S,\"ok\":%d,\"typed_errors\":%d,\"transport_errors\":%d,\"wrong\":%d,\"recovered\":%b,\"daemon_alive\":%b}"
                        r.fr_name r.fr_ok r.fr_typed r.fr_transport r.fr_wrong r.fr_recovered
                        r.fr_alive)
                    rows;
                  Printf.bprintf b
                    "],\"crashes\":%d,\"wrong_replies\":%d,\"post_fault_slo_ok\":%b,\"journal\":{\"replay_matches\":%b,\"torn_tail_detected\":%b,\"torn_replay_matches\":%b,\"compacted\":%b}}\n"
                    crashes wrong_replies slo_ok jd.jd_replay jd.jd_torn_detected
                    jd.jd_torn_replay jd.jd_compacted;
                  print_string (Buffer.contents b)
                end
                else begin
                  Format.printf "chaos-serve %s: %d fault(s) x %d probe(s), seed %d@." t.tname
                    (Array.length faults) probes seed;
                  Array.iter
                    (fun r ->
                      Format.printf
                        "  %-14s ok %d  typed %d  transport %d  wrong %d  recovered %b  alive %b@."
                        r.fr_name r.fr_ok r.fr_typed r.fr_transport r.fr_wrong r.fr_recovered
                        r.fr_alive)
                    rows;
                  Format.printf "post-fault SLO: %s (p99 %.3f ms)@."
                    (if slo_ok then "ok" else "VIOLATED")
                    slo_p99;
                  Format.printf "journal: replay %b, torn detected %b, torn replay %b, compacted %b@."
                    jd.jd_replay jd.jd_torn_detected jd.jd_torn_replay jd.jd_compacted
                end;
                if
                  crashes = 0 && wrong_replies = 0 && all_recovered && slo_ok && jd.jd_replay
                  && jd.jd_torn_detected && jd.jd_torn_replay && jd.jd_compacted
                then 0
                else 1))
  in
  let doc =
    "Resilience drill against an in-process respctld: probe every fault class (latency, \
     partial writes, truncation, corruption, resets, blackholes) through a seeded chaos \
     proxy, assert the daemon survives with only typed errors, check the post-fault SLO, and \
     verify kill-and-restart journal recovery (torn tails included) rebuilds byte-identical \
     state."
  in
  Cmd.v (Cmd.info "chaos-serve" ~doc)
    Term.(const run $ topology_arg $ seed_arg $ fraction_arg $ probes_arg $ json_arg)

let () =
  let doc = "REsPoNse: identifying and using energy-critical paths" in
  let info = Cmd.info "respctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            topo_cmd; tables_cmd; power_cmd; replay_cmd; chaos_cmd; chaos_serve_cmd; stats_cmd;
            export_cmd; query_cmd; load_cmd; analyze_cmd; check_cmd;
          ]))
