(* Tests for the extension modules: the flattened butterfly topology,
   exports, peak-duration analysis, sleep states, the trace export and
   deployment feasibility. *)

module G = Topo.Graph
module Path = Topo.Path
module Matrix = Traffic.Matrix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* -------------------- Butterfly -------------------- *)

let test_butterfly_structure () =
  let bf = Topo.Butterfly.make 4 in
  let g = bf.Topo.Butterfly.graph in
  (* 16 routers + 32 hosts; links: 32 host + 2 * 4 rows/cols * C(4,2)=6. *)
  Alcotest.(check int) "nodes" 48 (G.node_count g);
  Alcotest.(check int) "links" (32 + (2 * 4 * 6)) (G.link_count g);
  (* Every router reaches every other in at most 2 router hops. *)
  let r0 = bf.Topo.Butterfly.routers.(0) in
  let res = Routing.Dijkstra.run g ~weight:(fun _ -> 1.0) ~src:r0 () in
  Array.iter
    (fun r -> Alcotest.(check bool) "diameter 2" true (res.Routing.Dijkstra.dist.(r) <= 2.0))
    bf.Topo.Butterfly.routers

let test_butterfly_tables () =
  (* Only six of the sixteen routers host active servers: the rest can power
     off entirely once REsPoNse consolidates their transit away. *)
  let bf = Topo.Butterfly.make 4 ~concentration:1 in
  let g = bf.Topo.Butterfly.graph in
  let power = Power.Model.commodity_dc g in
  let hosts =
    Array.to_list (Array.sub bf.Topo.Butterfly.hosts 0 6)
  in
  let pairs =
    List.concat_map (fun o -> List.filter_map (fun d -> if o <> d then Some (o, d) else None) hosts) hosts
  in
  let tables = Response.Framework.precompute g power ~pairs in
  Alcotest.(check int) "all pairs installed" (List.length pairs)
    (List.length (Response.Tables.pairs tables));
  let tm = Traffic.Matrix.uniform (G.node_count g) ~pairs ~demand:5e7 in
  let e = Response.Framework.evaluate tables power tm in
  Alcotest.(check bool)
    (Printf.sprintf "saves power (%.1f%%)" e.Response.Framework.power_percent)
    true
    (e.Response.Framework.power_percent < 70.0)

(* -------------------- Export -------------------- *)

let test_dot_export () =
  let g = Fixtures.triangle () in
  let dot = Topo.Export.to_dot g in
  Alcotest.(check bool) "graph header" true (String.length dot > 0);
  Alcotest.(check bool) "mentions nodes" true
    (contains dot "n0");
  (* Sleeping links are dashed. *)
  let st = Topo.State.all_on g in
  Topo.State.set_link g st 0 false;
  let dot' = Topo.Export.to_dot ~state:st g in
  Alcotest.(check bool) "dashed sleeping link" true
    (contains dot' "dashed")

let test_csv_export () =
  let g = Topo.Geant.make () in
  let csv = Topo.Export.to_csv g in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one line per link" (1 + G.link_count g) (List.length lines)

let test_capacity_summary () =
  let g = Topo.Geant.make () in
  match Topo.Export.capacity_summary g with
  | (top_cap, top_n) :: _ ->
      Alcotest.(check (float 1.0)) "10G first" 10e9 top_cap;
      Alcotest.(check int) "sixteen 10G links" 16 top_n
  | [] -> Alcotest.fail "empty summary"

(* -------------------- Peaks -------------------- *)

let synthetic_trace volumes =
  let tms =
    Array.map
      (fun v ->
        let m = Matrix.create 2 in
        if v > 0.0 then Matrix.set m 0 1 v;
        m)
      volumes
  in
  Traffic.Trace.make ~interval:900.0 tms

let test_peak_episodes () =
  let tr = synthetic_trace [| 1.0; 9.0; 10.0; 2.0; 9.5; 1.0 |] in
  (* threshold 0.9 -> bar 9.0: two episodes, 2 and 1 intervals long. *)
  let eps = Traffic.Peaks.peak_episodes tr ~threshold:0.9 in
  Alcotest.(check int) "episodes" 2 (List.length eps);
  (match eps with
  | [ e1; e2 ] ->
      Alcotest.(check (float 1e-9)) "first duration" 1800.0 e1.Traffic.Peaks.duration;
      Alcotest.(check (float 1e-9)) "first start" 900.0 e1.Traffic.Peaks.start;
      Alcotest.(check (float 1e-9)) "second duration" 900.0 e2.Traffic.Peaks.duration;
      Alcotest.(check (float 1e-9)) "peak volume" 10.0 e1.Traffic.Peaks.peak_volume
  | _ -> Alcotest.fail "episode shape");
  Alcotest.(check (float 1e-9)) "mean" 1350.0 (Traffic.Peaks.mean_peak_duration tr ~threshold:0.9);
  Alcotest.(check (float 1e-9)) "longest" 1800.0 (Traffic.Peaks.longest_peak tr ~threshold:0.9);
  Alcotest.(check (float 1e-9)) "fraction" 0.5
    (Traffic.Peaks.fraction_of_time_in_peak tr ~threshold:0.9)

let test_peak_trailing_episode () =
  let tr = synthetic_trace [| 1.0; 10.0; 10.0 |] in
  match Traffic.Peaks.peak_episodes tr ~threshold:0.9 with
  | [ e ] -> Alcotest.(check (float 1e-9)) "open-ended episode closed" 1800.0 e.Traffic.Peaks.duration
  | _ -> Alcotest.fail "one episode"

let test_geant_like_peaks_short () =
  (* The paper's observation: average peak duration is under ~2 hours. *)
  let g = Topo.Geant.make () in
  let tr = Traffic.Synth.geant_like g ~days:5 () in
  let mean = Traffic.Peaks.mean_peak_duration tr ~threshold:0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "mean peak %.1f h < 3 h" (mean /. 3600.0))
    true
    (mean > 0.0 && mean < 3.0 *. 3600.0)

(* -------------------- Sleep states -------------------- *)

let test_breakeven_ordering () =
  Alcotest.(check bool) "deeper states need longer gaps" true
    (Power.Sleep.breakeven_gap Power.Sleep.lpi < Power.Sleep.breakeven_gap Power.Sleep.nap
    && Power.Sleep.breakeven_gap Power.Sleep.nap < Power.Sleep.breakeven_gap Power.Sleep.deep)

let test_gaps_of_busy () =
  let gaps = Power.Sleep.gaps_of_busy ~busy:[ (1.0, 2.0); (4.0, 5.0) ] ~horizon:10.0 in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "gaps" [ (0.0, 1.0); (2.0, 4.0); (5.0, 10.0) ] gaps;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "no busy = one gap" [ (0.0, 10.0) ]
    (Power.Sleep.gaps_of_busy ~busy:[] ~horizon:10.0)

let test_energy_bounds () =
  let module U = Eutil.Units in
  let energy ~states =
    U.to_float
      (Power.Sleep.energy ~active_power:(U.watts 100.0) ~states ~busy:[ (0.0, 3.0) ]
         ~horizon:10.0)
  in
  let on = energy ~states:[] in
  Alcotest.(check (float 1e-6)) "always on" 1000.0 on;
  let slept = energy ~states:[ Power.Sleep.nap ] in
  Alcotest.(check bool) "sleeping saves" true (slept < on);
  (* Energy is never below the deep-sleep floor. *)
  let floor = (3.0 +. (7.0 *. 0.02)) *. 100.0 in
  let deep = energy ~states:[ Power.Sleep.deep ] in
  Alcotest.(check bool) "above physical floor" true (deep >= floor -. 1e-6)

let test_short_gaps_stay_awake () =
  (* Gaps shorter than the break-even must not enter the state: energy equals
     always-on. *)
  let module U = Eutil.Units in
  let busy = List.init 50 (fun i -> (float_of_int i *. 0.2, (float_of_int i *. 0.2) +. 0.19)) in
  let energy ~states =
    U.to_float (Power.Sleep.energy ~active_power:(U.watts 10.0) ~states ~busy ~horizon:10.0)
  in
  let on = energy ~states:[] in
  let with_deep = energy ~states:[ Power.Sleep.deep ] in
  Alcotest.(check (float 1e-6)) "deep useless for 10 ms gaps" on with_deep;
  (* But LPI (microsecond wake) exploits them. *)
  let with_lpi = energy ~states:[ Power.Sleep.lpi ] in
  Alcotest.(check bool) "lpi helps" true (with_lpi < on)

let test_consolidation_lengthens_gaps () =
  (* The REsPoNse synergy: the same utilisation in longer bursts (traffic
     consolidated elsewhere most of the time) allows deeper states. *)
  let module U = Eutil.Units in
  let u = U.ratio 0.3 in
  let fine = Power.Sleep.periodic_busy ~utilisation:u ~period:0.01 ~horizon:100.0 in
  let coarse = Power.Sleep.periodic_busy ~utilisation:u ~period:60.0 ~horizon:100.0 in
  let states = [ Power.Sleep.nap; Power.Sleep.deep ] in
  let e_fine =
    U.to_float (Power.Sleep.energy ~active_power:(U.watts 100.0) ~states ~busy:fine ~horizon:100.0)
  in
  let e_coarse =
    U.to_float
      (Power.Sleep.energy ~active_power:(U.watts 100.0) ~states ~busy:coarse ~horizon:100.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "longer gaps save more (%.0f < %.0f)" e_coarse e_fine)
    true (e_coarse < e_fine)

(* -------------------- Deploy -------------------- *)

let abovenet_tables =
  lazy
    (let g = Topo.Rocketfuel.make Topo.Rocketfuel.abovenet in
     let power = Power.Model.cisco12000 g in
     (g, Response.Framework.precompute g power ~pairs:(Fixtures.all_pairs g)))

let test_tunnel_stats () =
  let _, tables = Lazy.force abovenet_tables in
  let stats = Response.Deploy.tunnel_stats tables in
  (* 22 PoPs, 21 destinations each, up to 3 paths: at most 63 tunnels. *)
  Alcotest.(check bool)
    (Printf.sprintf "max per node %d" stats.Response.Deploy.max_per_node)
    true
    (stats.Response.Deploy.max_per_node <= 63 && stats.Response.Deploy.max_per_node >= 21);
  Alcotest.(check bool) "fits 600-tunnel routers" true (Response.Deploy.fits_mpls tables);
  Alcotest.(check bool) "tight limit fails" false
    (Response.Deploy.fits_mpls ~tunnel_limit:10 tables)

let test_restrict_tables () =
  let _, tables = Lazy.force abovenet_tables in
  let two = Response.Deploy.restrict tables ~max_tables:2 in
  Alcotest.(check int) "dual topology routing" 2 (Response.Tables.n_tables two);
  (* Always-on is always kept; the second slot prefers the failover when the
     original entry had one. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "within budget" true
        (Array.length (Response.Tables.paths e) <= 2);
      let original =
        Option.get (Response.Tables.find tables e.Response.Tables.origin e.Response.Tables.dest)
      in
      if original.Response.Tables.failover <> None then
        Alcotest.(check bool) "failover kept when present" true
          (e.Response.Tables.failover <> None))
    (Response.Tables.entries two);
  let one = Response.Deploy.restrict tables ~max_tables:1 in
  Alcotest.(check int) "single table" 1 (Response.Tables.n_tables one)

let test_failure_coverage () =
  let g, tables = Lazy.force abovenet_tables in
  let coverage = Response.Deploy.single_failure_coverage tables in
  Alcotest.(check bool)
    (Printf.sprintf "single failures mostly covered (%.2f)" coverage)
    true (coverage > 0.9);
  (* No failures: full coverage. *)
  Alcotest.(check (float 1e-9)) "no failure" 1.0
    (Response.Deploy.coverage_after_failures tables ~failed:[]);
  (* Failing everything disconnects everything. *)
  let all = List.init (G.link_count g) (fun l -> l) in
  Alcotest.(check (float 1e-9)) "all failed" 0.0
    (Response.Deploy.coverage_after_failures tables ~failed:all);
  Alcotest.(check bool) "recompute warranted after massacre" true
    (Response.Deploy.recompute_warranted tables ~failed:all)

let test_restricted_tables_less_robust () =
  let _, tables = Lazy.force abovenet_tables in
  let restricted = Response.Deploy.restrict tables ~max_tables:1 in
  Alcotest.(check bool) "fewer tables, less robustness" true
    (Response.Deploy.single_failure_coverage restricted
    <= Response.Deploy.single_failure_coverage tables)


(* -------------------- EATe baseline -------------------- *)

let test_eate_consolidates () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:8 ~fraction:0.6 in
  let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps 6e9) () in
  let r = Response.Eate.run g power tm in
  Alcotest.(check bool) (Printf.sprintf "saves power (%.1f%%)" r.Response.Eate.power_percent)
    true (r.Response.Eate.power_percent < 100.0);
  Alcotest.(check bool) "respects threshold" true (r.Response.Eate.max_utilization <= 0.9 +. 1e-9);
  Alcotest.(check bool) "converges" true (r.Response.Eate.rounds <= 50);
  (* Deterministic. *)
  let r2 = Response.Eate.run g power tm in
  Alcotest.(check (float 1e-9)) "deterministic" r.Response.Eate.power_percent r2.Response.Eate.power_percent

let test_eate_vs_response () =
  (* EATe aggregates online over k-shortest paths; REsPoNse's precomputed
     energy-critical paths should save at least as much at low load. *)
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:8 ~fraction:0.6 in
  let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps 4e9) () in
  let eate = Response.Eate.run g power tm in
  let tables = Response.Framework.precompute g power ~pairs in
  let rep = Response.Framework.evaluate tables power tm in
  Alcotest.(check bool)
    (Printf.sprintf "REsPoNse %.1f%% <= EATe %.1f%% + 10" rep.Response.Framework.power_percent
       eate.Response.Eate.power_percent)
    true
    (rep.Response.Framework.power_percent <= eate.Response.Eate.power_percent +. 10.0)

(* -------------------- Trace export -------------------- *)

(* The interval header, then one row per positive demand in (interval,
   origin, destination) order; an all-zero interval writes no row. *)
let test_trace_csv_format () =
  let m0 = Matrix.create 3 and m1 = Matrix.create 3 in
  Matrix.set m0 2 0 0.5;
  Matrix.set m0 0 1 123.0;
  Matrix.set m1 1 2 7.25;
  let trace = Traffic.Trace.make ~interval:60.0 [| m0; Matrix.create 3; m1 |] in
  Alcotest.(check string) "rows"
    "interval,60.000000\n0,0,1,123.000\n0,2,0,0.500\n2,1,2,7.250\n"
    (Traffic.Trace_io.to_csv trace)

let () =
  Alcotest.run "extensions"
    [
      ( "butterfly",
        [
          Alcotest.test_case "structure" `Quick test_butterfly_structure;
          Alcotest.test_case "tables" `Quick test_butterfly_tables;
        ] );
      ( "export",
        [
          Alcotest.test_case "dot" `Quick test_dot_export;
          Alcotest.test_case "csv" `Quick test_csv_export;
          Alcotest.test_case "capacity summary" `Quick test_capacity_summary;
        ] );
      ( "peaks",
        [
          Alcotest.test_case "episodes" `Quick test_peak_episodes;
          Alcotest.test_case "trailing episode" `Quick test_peak_trailing_episode;
          Alcotest.test_case "geant-like peaks short" `Quick test_geant_like_peaks_short;
        ] );
      ( "sleep",
        [
          Alcotest.test_case "breakeven ordering" `Quick test_breakeven_ordering;
          Alcotest.test_case "gaps of busy" `Quick test_gaps_of_busy;
          Alcotest.test_case "energy bounds" `Quick test_energy_bounds;
          Alcotest.test_case "short gaps stay awake" `Quick test_short_gaps_stay_awake;
          Alcotest.test_case "consolidation lengthens gaps" `Quick test_consolidation_lengthens_gaps;
        ] );
      ( "eate",
        [
          Alcotest.test_case "consolidates" `Quick test_eate_consolidates;
          Alcotest.test_case "vs response" `Quick test_eate_vs_response;
        ] );
      ( "trace-io", [ Alcotest.test_case "csv format" `Quick test_trace_csv_format ] );
      ( "deploy",
        [
          Alcotest.test_case "tunnel stats" `Quick test_tunnel_stats;
          Alcotest.test_case "restrict" `Quick test_restrict_tables;
          Alcotest.test_case "failure coverage" `Quick test_failure_coverage;
          Alcotest.test_case "restriction costs robustness" `Quick test_restricted_tables_less_robust;
        ] );
    ]
