(* Tests for the fault-injection subsystem: seeded scenario generation,
   the chaos harness (availability, conservation, recovery times), graceful
   degradation under node failures, and the single-link sweep that checks
   the paper's Section 4.3 failover claim empirically. *)

module G = Topo.Graph
module Sim = Netsim.Sim
module Scenario = Fault.Scenario
module Harness = Fault.Harness

let power_of ex = Power.Model.cisco12000 ex.Topo.Example.graph

let fast_config =
  {
    Sim.te =
      (let module U = Eutil.Units in
       {
         Response.Te.default_config with
           Response.Te.probe_period = U.seconds 0.1;
         util_threshold = U.ratio 0.9;
         low_threshold = U.ratio 0.55;
         hysteresis = U.seconds 0.05;
         shift_fraction = U.ratio 1.0;
       });
    wake_time = 0.01;
    failure_detection = 0.1;
    idle_timeout = 0.3;
    sample_interval = 0.05;
    te_start = 0.0;
    transition_energy = 0.0;
  }

(* ------------------------- scenario generation ---------------------- *)

let fig3 () =
  let ex, tables = Fixtures.fig3_tables () in
  (ex, tables, Fixtures.fig7_demand ex)

(* One line per event, so schedules compare as strings. *)
let describe g evs =
  let name_of_link l =
    let i, j = G.link_endpoints g l in
    Printf.sprintf "%s-%s" (G.name g i) (G.name g j)
  in
  String.concat ""
    (List.map
       (function
         | Sim.Set_demand (t, m) ->
             Printf.sprintf "%8.3f demand %.3e bit/s over %d pairs\n" t (Traffic.Matrix.total m)
               (List.length (Traffic.Matrix.flows m))
         | Sim.Fail_link (t, l) -> Printf.sprintf "%8.3f fail   link %d (%s)\n" t l (name_of_link l)
         | Sim.Repair_link (t, l) ->
             Printf.sprintf "%8.3f repair link %d (%s)\n" t l (name_of_link l))
       evs)

let test_events_deterministic () =
  let ex, _, base = fig3 () in
  let g = ex.Topo.Example.graph in
  let spec = { Scenario.default with Scenario.seed = 11; duration = 6.0 } in
  let e1 = Scenario.events spec g ~base in
  let e2 = Scenario.events spec g ~base in
  Alcotest.(check string) "same seed, same schedule" (describe g e1) (describe g e2);
  let e3 = Scenario.events { spec with Scenario.seed = 12 } g ~base in
  Alcotest.(check bool) "different seed, different schedule" true
    (describe g e1 <> describe g e3)

let test_events_well_formed () =
  (* Whatever processes overlap (links, nodes, SRLGs, a flap), the merged
     schedule must alternate fail/repair per link and stay time-sorted. *)
  let ex, _, base = fig3 () in
  let g = ex.Topo.Example.graph in
  List.iter
    (fun seed ->
      let spec =
        {
          Scenario.seed;
          duration = 8.0;
          warmup = 0.5;
          link_faults = Some { Scenario.mtbf = 2.0; mttr = 0.5 };
          node_faults = Some { Scenario.mtbf = 4.0; mttr = 1.0 };
          srlgs = [ [ 0; 1 ]; [ 2; 3 ] ];
          srlg_faults = Some { Scenario.mtbf = 5.0; mttr = 0.5 };
          flapping =
            Some { Scenario.flap_link = Some 4; flap_period = 1.0; flap_cycles = 5; flap_start = 1.0 };
          surges = [ { Scenario.surge_at = 3.0; surge_factor = 2.0; surge_duration = 1.0 } ];
        }
      in
      let events = Scenario.events spec g ~base in
      let down = Array.make (G.link_count g) false in
      let last_t = ref neg_infinity in
      List.iter
        (fun ev ->
          let t =
            match ev with
            | Sim.Set_demand (t, _) -> t
            | Sim.Fail_link (t, l) ->
                Alcotest.(check bool) "no double fail" false down.(l);
                down.(l) <- true;
                t
            | Sim.Repair_link (t, l) ->
                Alcotest.(check bool) "repair only a down link" true down.(l);
                down.(l) <- false;
                t
          in
          Alcotest.(check bool) "time-sorted" true (t >= !last_t);
          Alcotest.(check bool) "no faults before warmup" true
            (match ev with Sim.Fail_link _ -> t >= spec.Scenario.warmup | _ -> true);
          last_t := t)
        events)
    [ 0; 1; 2; 17; 99 ]

let test_random_srlgs () =
  let ex, _, _ = fig3 () in
  let g = ex.Topo.Example.graph in
  let groups = Scenario.random_srlgs g (Eutil.Prng.create 5) ~groups:3 ~size:2 in
  Alcotest.(check bool) "at least one group" true (List.length groups >= 1);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun grp ->
      Alcotest.(check bool) "group size within bound" true (List.length grp <= 2 && grp <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) "valid link id" true (l >= 0 && l < G.link_count g);
          Alcotest.(check bool) "groups disjoint" false (Hashtbl.mem seen l);
          Hashtbl.replace seen l ())
        grp)
    groups

(* ------------------------------ harness ------------------------------ *)

let run_harness ?(spec_of = fun s -> s) ?(jobs = 1) ~trials seed =
  let ex, tables, base = fig3 () in
  let spec =
    spec_of
      {
        Scenario.default with
        Scenario.seed;
        duration = 5.0;
        link_faults = Some { Scenario.mtbf = 2.0; mttr = 0.4 };
      }
  in
  Harness.run ~config:fast_config ~jobs ~tables ~power:(power_of ex) ~base ~spec ~trials ()

let test_harness_deterministic_json () =
  let j1 = Harness.to_json (run_harness ~trials:2 3) in
  let j2 = Harness.to_json (run_harness ~trials:2 3) in
  Alcotest.(check string) "byte-identical JSON for equal seeds" j1 j2;
  let j3 = Harness.to_json (run_harness ~trials:2 4) in
  Alcotest.(check bool) "seed shows up in the output" true (j1 <> j3);
  match Obs.Export.validate_json j1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos JSON invalid: %s" e

(* The certified fan-out: trial k lands at index k whichever domain ran
   it, so the report must be byte-identical for any job count. *)
let test_harness_jobs_identical () =
  let j1 = Harness.to_json (run_harness ~jobs:1 ~trials:4 5) in
  let j4 = Harness.to_json (run_harness ~jobs:4 ~trials:4 5) in
  Alcotest.(check string) "jobs 1 and jobs 4 byte-identical" j1 j4

let prop_harness_jobs_identical =
  QCheck.Test.make ~name:"equal-seed chaos reports are byte-identical across jobs" ~count:4
    QCheck.(pair (int_bound 1000) (int_range 1 3))
    (fun (seed, trials) ->
      Harness.to_json (run_harness ~jobs:1 ~trials seed)
      = Harness.to_json (run_harness ~jobs:4 ~trials seed))

(* The summary JSON must depend only on the demand set, not on the order
   flows were inserted into the matrix — the hash-backed sparse
   representation must never leak iteration order into the report. *)
let test_harness_insertion_order_independent () =
  let json_with shuffle =
    let ex, tables, base = fig3 () in
    let flows = Traffic.Matrix.flows base in
    let base' = Traffic.Matrix.of_flows (Traffic.Matrix.size base) (shuffle flows) in
    let spec =
      {
        Scenario.default with
        Scenario.seed = 3;
        duration = 5.0;
        link_faults = Some { Scenario.mtbf = 2.0; mttr = 0.4 };
      }
    in
    Harness.to_json
      (Harness.run ~config:fast_config ~tables ~power:(power_of ex) ~base:base' ~spec ~trials:2 ())
  in
  Alcotest.(check string) "insertion order does not change the bytes"
    (json_with Fun.id)
    (json_with List.rev)

let test_harness_aggregates () =
  let r = run_harness ~trials:3 1 in
  Alcotest.(check int) "trials run" 3 (Array.length r.Harness.trials);
  Alcotest.(check bool) "availability in [0,1]" true
    (r.Harness.availability >= 0.0 && r.Harness.availability <= 1.0);
  Alcotest.(check bool) "recovery percentiles ordered" true
    (r.Harness.recovery_p50 <= r.Harness.recovery_p99
    && r.Harness.recovery_p99 <= r.Harness.recovery_max);
  Alcotest.(check bool) "outages match pooled recoveries" true
    (r.Harness.outages
    = Array.fold_left (fun acc tr -> acc + Array.length tr.Harness.tr_recoveries) 0 r.Harness.trials);
  Alcotest.(check bool) "per-trial seeds advance" true
    (Array.to_list r.Harness.trials
    |> List.mapi (fun i tr -> tr.Harness.tr_seed = 1 + i)
    |> List.for_all Fun.id)

let test_node_failure_scenario_accounts_loss () =
  (* A chassis failure at E kills both always-on paths at once; there is no
     failover for A and C, so the run must finish with the shortfall booked
     as loss (conservation holds) rather than hanging or raising. *)
  let r =
    run_harness ~trials:1 0 ~spec_of:(fun s ->
        {
          s with
          Scenario.link_faults = None;
          node_faults = Some { Scenario.mtbf = 1.5; mttr = 2.0 };
        })
  in
  Alcotest.(check bool) "some loss booked" true (r.Harness.lost_bits > 0.0);
  Alcotest.(check bool) "conservation holds" true
    (r.Harness.conservation_residual_bits <= 1e-6 *. Float.max 1.0 r.Harness.offered_bits);
  Alcotest.(check bool) "availability reflects the outage" true (r.Harness.availability < 1.0)

(* Property: delivered + lost = offered on every trial, whatever the seed
   and fault mix — Harness.run itself raises on violation, so surviving the
   call plus a zero pooled residual is the property. *)
let prop_conservation =
  QCheck.Test.make ~name:"chaos replay conserves traffic" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r =
        run_harness ~trials:1 seed ~spec_of:(fun s ->
            {
              s with
              Scenario.node_faults =
                (if seed mod 2 = 0 then Some { Scenario.mtbf = 4.0; mttr = 0.8 } else None);
            })
      in
      r.Harness.conservation_residual_bits <= 1e-6 *. Float.max 1.0 r.Harness.offered_bits
      && r.Harness.delivered_fraction >= 0.0
      && r.Harness.delivered_fraction <= 1.0 +. 1e-9)

(* --------------------------- Section 4.3 ----------------------------- *)

let test_single_link_sweep_fig3 () =
  (* Install the framework's own tables (with failover) on the example
     topology: every non-partitioning single-link failure must end with zero
     steady-state loss once the grace window passes — the Section 4.3 claim.
     Partitioning cuts must be identified as such. *)
  let ex = Topo.Example.make ~include_b:false () in
  let g = ex.Topo.Example.graph in
  let power = Power.Model.cisco12000 g in
  let pairs = [ (ex.Topo.Example.a, ex.Topo.Example.k); (ex.Topo.Example.c, ex.Topo.Example.k) ] in
  let tables = Response.Framework.precompute g power ~pairs in
  let base = Fixtures.fig7_demand ex in
  let sweep =
    Harness.single_link_sweep ~config:fast_config ~tables ~power ~base ~fail_at:1.0 ~grace:1.5
      ~duration:4.0 ()
  in
  Alcotest.(check int) "every link swept" (G.link_count g) (List.length sweep);
  List.iter
    (fun e ->
      if e.Harness.sw_partitioned = [] then
        Alcotest.(check (float 1.0))
          (Printf.sprintf "link %d: failover absorbs the cut" e.Harness.sw_link)
          0.0 e.Harness.sw_lost_bits_after
      else
        (* A partitioned pair cannot be served: its demand shows up as loss,
           never as a crash. *)
        Alcotest.(check bool)
          (Printf.sprintf "link %d: partition loses traffic" e.Harness.sw_link)
          true
          (e.Harness.sw_lost_bits_after > 0.0 || e.Harness.sw_final_rate < 5e6))
    sweep

let () =
  Alcotest.run "fault"
    [
      ( "scenario",
        [
          Alcotest.test_case "deterministic schedules" `Quick test_events_deterministic;
          Alcotest.test_case "well-formed schedules" `Quick test_events_well_formed;
          Alcotest.test_case "random srlgs" `Quick test_random_srlgs;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic JSON" `Quick test_harness_deterministic_json;
          Alcotest.test_case "jobs byte-identical" `Quick test_harness_jobs_identical;
          Alcotest.test_case "insertion-order independent" `Quick
            test_harness_insertion_order_independent;
          QCheck_alcotest.to_alcotest prop_harness_jobs_identical;
          Alcotest.test_case "aggregates" `Quick test_harness_aggregates;
          Alcotest.test_case "node failure accounts loss" `Quick test_node_failure_scenario_accounts_loss;
          QCheck_alcotest.to_alcotest prop_conservation;
        ] );
      ( "section-4.3",
        [ Alcotest.test_case "single-link sweep" `Quick test_single_link_sweep_fig3 ] );
    ]
