(* Bench sections for the extension studies: deployment feasibility
   (Section 4.5), power-delivery peaks (Section 4.5), element sleep states
   (Section 2.1.1), the flattened butterfly (Section 2.3), and the
   sleep-aggressiveness ablation. *)

module G = Topo.Graph
module Matrix = Traffic.Matrix
module Sim = Netsim.Sim
open Report

let deploy () =
  section "Deployment feasibility (Section 4.5): MPLS tunnels, table budgets, robustness";
  let g = Lazy.force Figures.abovenet in
  let power = Lazy.force Figures.abovenet_power in
  let pairs = Figures.all_pairs g in
  let tables = Response.Framework.precompute g power ~pairs in
  let stats = Response.Deploy.tunnel_stats tables in
  kvf "origin-destination pairs" "%d" (List.length pairs);
  kvf "head-end tunnels, worst router" "%d (limit ~600 [26])" stats.Response.Deploy.max_per_node;
  kvf "fits MPLS deployment" "%b" (Response.Deploy.fits_mpls tables);
  kvf "single-failure pair coverage" "%.1f%%"
    (100.0 *. Response.Deploy.single_failure_coverage tables);
  subsection "memory-limited deployment (keep the most important tables)";
  row "  %-14s %-22s %s@." "tables/pair" "single-failure coverage" "carriable volume [Gbit/s]";
  let base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 1.0) () in
  List.iter
    (fun n ->
      let t = if n >= Response.Tables.n_tables tables then tables
        else Response.Deploy.restrict tables ~max_tables:n
      in
      let cov = Response.Deploy.single_failure_coverage t in
      let carried = Response.Framework.carried_fraction t power ~base ~max_level:10 in
      row "  %-14d %-22.1f %.2f@." n (100.0 *. cov) carried)
    [ 1; 2; 3 ];
  subsection "when do topology changes warrant recomputation? (the paper's future work)";
  let rng = Eutil.Prng.create 13 in
  row "  %-18s %-18s %s@." "links failed" "pairs covered [%]" "recompute?";
  List.iter
    (fun k ->
      let failed =
        Array.to_list (Eutil.Prng.sample rng k (G.link_count g))
      in
      let cov = Response.Deploy.coverage_after_failures tables ~failed in
      row "  %-18d %-18.1f %b@." k (100.0 *. cov)
        (Response.Deploy.recompute_warranted tables ~failed))
    [ 1; 2; 4; 8; 16 ]

let peaks () =
  section "Power-delivery peaks (Section 4.5): how long do demand peaks last?";
  let trace = Lazy.force Figures.geant_trace in
  row "  %-14s %-16s %-16s %s@." "threshold" "mean peak [h]" "longest [h]" "time in peak [%]";
  List.iter
    (fun thr ->
      row "  %-14.0f %-16.2f %-16.2f %.1f@." (100.0 *. thr)
        (Traffic.Peaks.mean_peak_duration trace ~threshold:thr /. 3600.0)
        (Traffic.Peaks.longest_peak trace ~threshold:thr /. 3600.0)
        (100.0 *. Traffic.Peaks.fraction_of_time_in_peak trace ~threshold:thr))
    [ 0.8; 0.9; 0.95 ];
  note "paper: the average peak lasts under ~2 h, so alternative power sources";
  note "or thermal headroom can bridge it - provision for typical load instead"

let sleep_states () =
  section "Element sleep states (Section 2.1.1): consolidation lengthens idle gaps";
  let states = [ Power.Sleep.lpi; Power.Sleep.nap; Power.Sleep.deep ] in
  row "  %-10s %-18s %-14s %s@." "state" "power fraction" "wake time" "break-even gap";
  let module U = Eutil.Units in
  List.iter
    (fun s ->
      row "  %-10s %-18.2f %-14s %s@." s.Power.Sleep.name
        (U.to_float s.Power.Sleep.power_fraction)
        (Printf.sprintf "%.0f us" (1e6 *. U.to_float s.Power.Sleep.wake_time))
        (Printf.sprintf "%.1f ms" (1e3 *. U.to_float (Power.Sleep.breakeven_gap s))))
    states;
  subsection "per-link energy at 30% utilisation vs traffic shaping granularity";
  row "  %-22s %-22s %s@." "burst period" "energy [% of always-on]" "deepest state usable";
  List.iter
    (fun period ->
      let busy = Power.Sleep.periodic_busy ~utilisation:(U.ratio 0.3) ~period ~horizon:600.0 in
      let sav =
        Power.Sleep.savings_percent ~active_power:(U.watts 100.0) ~states ~busy ~horizon:600.0
      in
      let gap = (1.0 -. 0.3) *. period in
      let deepest =
        List.fold_left
          (fun acc s ->
            if U.to_float (Power.Sleep.breakeven_gap s) <= gap then s.Power.Sleep.name else acc)
          "none" states
      in
      row "  %-22s %-22.1f %s@."
        (if period < 1.0 then Printf.sprintf "%.0f ms" (1e3 *. period)
         else Printf.sprintf "%.0f s" period)
        (100.0 -. sav) deepest)
    [ 0.001; 0.1; 1.0; 60.0 ];
  note "opportunistic sleeping [22] exploits sub-ms gaps only with LPI-class states;";
  note "buffer-and-burst [29] and REsPoNse-style consolidation unlock deep sleep"

let switching () =
  section "Ablation: idle-timeout aggressiveness vs wake transitions (Section 2.1.1)";
  let ex = Topo.Example.make ~include_b:false () in
  let g = ex.Topo.Example.graph in
  let power = Power.Model.cisco12000 g in
  (* Bursty on/off demand: 2 s on, 2 s off, for 40 s. *)
  let demand_on = Matrix.create (G.node_count g) in
  Matrix.set demand_on ex.Topo.Example.a ex.Topo.Example.k 2.5e6;
  Matrix.set demand_on ex.Topo.Example.c ex.Topo.Example.k 2.5e6;
  let demand_off = Matrix.create (G.node_count g) in
  let events =
    List.init 10 (fun i ->
        Sim.Set_demand (4.0 *. float_of_int i, demand_on)
        :: [ Sim.Set_demand ((4.0 *. float_of_int i) +. 2.0, demand_off) ])
    |> List.concat
  in
  let arc i j = Option.get (G.find_arc g i j) in
  let path l = Topo.Path.of_arcs g l in
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let middle o =
    path [ arc o ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.h; arc ex.Topo.Example.h k ]
  in
  let upper =
    path [ arc a ex.Topo.Example.d; arc ex.Topo.Example.d ex.Topo.Example.g; arc ex.Topo.Example.g k ]
  in
  let lower =
    path [ arc c ex.Topo.Example.f; arc ex.Topo.Example.f ex.Topo.Example.j; arc ex.Topo.Example.j k ]
  in
  let tables =
    Response.Tables.make g
      [
        { Response.Tables.origin = a; dest = k; always_on = middle a; on_demand = [ upper ]; failover = None };
        { Response.Tables.origin = c; dest = k; always_on = middle c; on_demand = [ lower ]; failover = None };
      ]
  in
  row "  %-18s %-14s %-16s %-18s %s@." "idle timeout [s]" "wakes" "mean power [%]" "energy [kJ]"
    "delivered [%]";
  List.iter
    (fun idle_timeout ->
      let config =
        {
          Sim.default_config with
          Sim.idle_timeout;
          sample_interval = 0.05;
          wake_time = 0.01;
          transition_energy = 50.0;
        }
      in
      let r = Sim.run ~config ~tables ~power ~events ~duration:40.0 () in
      row "  %-18.2f %-14d %-16.1f %-18.2f %.1f@." idle_timeout r.Sim.wake_count
        r.Sim.mean_power_percent (r.Sim.energy_joules /. 1e3)
        (100.0 *. r.Sim.delivered_fraction))
    [ 0.1; 0.5; 2.0; 10.0 ];
  note "aggressive timeouts sleep more but pay wake transitions and delivery dips;";
  note "the energy column includes 50 J per transition"

let butterfly () =
  section "Flattened butterfly (Section 2.3): energy-critical paths in an arbitrary topology";
  let bf = Topo.Butterfly.make 4 ~concentration:1 in
  let g = bf.Topo.Butterfly.graph in
  let power = Power.Model.commodity_dc g in
  kvf "topology" "k=4 flattened butterfly: %d routers, %d links"
    (Array.length bf.Topo.Butterfly.routers)
    (G.link_count g);
  (* Half of the routers host active servers. *)
  let hosts = Array.to_list (Array.sub bf.Topo.Butterfly.hosts 0 8) in
  let pairs =
    List.concat_map (fun o -> List.filter_map (fun d -> if o <> d then Some (o, d) else None) hosts) hosts
  in
  let tables = Response.Framework.precompute g power ~pairs in
  kvf "tables" "%d pairs, up to %d paths" (List.length pairs) (Response.Tables.n_tables tables);
  row "  %-18s %-12s %s@." "load/flow [Mbit/s]" "power [%]" "optimal [%]";
  List.iter
    (fun mbps ->
      let tm = Matrix.uniform (G.node_count g) ~pairs ~demand:(mbps *. 1e6) in
      let e = Response.Framework.evaluate tables power tm in
      let opt =
        match Optim.Minimal.power_down g power tm with
        | Some r -> r.Optim.Minimal.power_percent
        | None -> nan
      in
      row "  %-18.0f %-12.1f %.1f@." mbps e.Response.Framework.power_percent opt)
    [ 10.0; 50.0; 120.0 ];
  note "the framework needs no topology-specific code: butterfly rows/columns are";
  note "discovered by the same greedy + path machinery as fat-trees and ISP maps"

let openflow () =
  section "OpenFlow data plane (Section 5.3): packet-level cross-validation";
  let ex = Topo.Example.make ~include_b:false () in
  let g = ex.Topo.Example.graph in
  let power = Power.Model.cisco12000 g in
  let arc i j = Option.get (G.find_arc g i j) in
  let path l = Topo.Path.of_arcs g l in
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let middle o =
    path [ arc o ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.h; arc ex.Topo.Example.h k ]
  in
  let upper =
    path [ arc a ex.Topo.Example.d; arc ex.Topo.Example.d ex.Topo.Example.g; arc ex.Topo.Example.g k ]
  in
  let lower =
    path [ arc c ex.Topo.Example.f; arc ex.Topo.Example.f ex.Topo.Example.j; arc ex.Topo.Example.j k ]
  in
  let tables =
    Response.Tables.make g
      [
        { Response.Tables.origin = a; dest = k; always_on = middle a; on_demand = [ upper ]; failover = None };
        { Response.Tables.origin = c; dest = k; always_on = middle c; on_demand = [ lower ]; failover = None };
      ]
  in
  let ctl = Openflow.Controller.create tables in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  kvf "flow-table entries installed" "%d across %d switches"
    (Openflow.Controller.tables_installed ctl)
    (G.node_count g);
  row "  %-20s %-22s %-22s %s@." "offered [Mbit/s]" "packet delivered [%]" "fluid delivered [%]"
    "packet latency [ms]";
  List.iter
    (fun mbps ->
      let rate = mbps *. 1e6 /. 2.0 in
      let packet = Openflow.Pnet.run ctl ~flows:[ (a, k, rate); (c, k, rate) ] ~duration:3.0 in
      let demand = Matrix.create (G.node_count g) in
      Matrix.set demand a k rate;
      Matrix.set demand c k rate;
      let fluid =
        Sim.run ~tables ~power ~events:[ Sim.Set_demand (0.0, demand) ] ~duration:3.0 ()
      in
      let latency =
        Eutil.Stats.mean
          (Array.of_list (List.map (fun f -> f.Openflow.Pnet.mean_latency) packet.Openflow.Pnet.flows))
      in
      row "  %-20.1f %-22.1f %-22.1f %.1f@." mbps
        (100.0 *. packet.Openflow.Pnet.delivered_fraction)
        (100.0 *. fluid.Sim.delivered_fraction)
        (1e3 *. latency))
    [ 2.0; 5.0 ];
  (* Overload: the fluid simulator's TE spreads to the on-demand paths; the
     packet plane needs the controller reprogrammed with the same splits. *)
  let micro_flows =
    (* The paper's sources send several flows each; per-flow hashing needs
       that diversity to spread over the select buckets. *)
    List.concat_map (fun o -> List.init 8 (fun _ -> (o, k, 2e6))) [ a; c ]
  in
  let static = Openflow.Pnet.run ctl ~flows:micro_flows ~duration:3.0 in
  Response.Te.force_split te a k [| 0.5; 0.5 |];
  Response.Te.force_split te c k [| 0.5; 0.5 |];
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  let reprogrammed = Openflow.Pnet.run ctl ~flows:micro_flows ~duration:3.0 in
  kvf "32 Mbit/s (16 flows), static programming" "%.1f%% delivered (middle path saturates)"
    (100.0 *. static.Openflow.Pnet.delivered_fraction);
  kvf "32 Mbit/s (16 flows), TE reprogrammed" "%.1f%% delivered (on-demand paths in the tables)"
    (100.0 *. reprogrammed.Openflow.Pnet.delivered_fraction);
  note "both data planes agree in steady state; the packet plane adds queueing";
  note "latency and loss detail the fluid model abstracts (as ns-2 did for the paper)"

let eate () =
  section "Ablation: EATe-style distributed aggregation vs precomputed paths (Section 2.3)";
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:8 ~fraction:0.6 in
  let tables = Response.Framework.precompute g power ~pairs in
  row "  %-16s %-16s %-14s %-14s %s@." "load [Gbit/s]" "EATe power [%]" "EATe rounds"
    "REsPoNse [%]" "optimal [%]";
  List.iter
    (fun gbits ->
      let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps gbits) () in
      let eate_r = Response.Eate.run g power tm in
      let rep = Response.Framework.evaluate tables power tm in
      let opt =
        match Optim.Minimal.power_down g power tm with
        | Some r -> r.Optim.Minimal.power_percent
        | None -> nan
      in
      row "  %-16.0f %-16.1f %-14d %-14.1f %.1f@." gbits
        eate_r.Response.Eate.power_percent eate_r.Response.Eate.rounds
        rep.Response.Framework.power_percent opt)
    [ 2.0; 6.0; 12.0 ];
  note "EATe needs multi-round online coordination per demand change; REsPoNse";
  note "reaches comparable savings with one table lookup per probe"

let chaos () =
  section "Chaos: availability, loss and recovery under seeded fault injection";
  let g = Lazy.force Figures.geant in
  let power = Lazy.force Figures.geant_power in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.7 in
  let tables = Response.Framework.precompute g power ~pairs in
  let base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let trials = if fast then 2 else 5 in
  let duration = if fast then 4.0 else 10.0 in
  row "  %-14s %-14s %-16s %-12s %-12s %s@." "link MTBF [s]" "availability" "delivered [%]"
    "p50 rec [s]" "p99 rec [s]" "sleep ratio";
  List.iter
    (fun mtbf ->
      let spec =
        {
          Fault.Scenario.default with
          Fault.Scenario.seed = 42;
          duration;
          link_faults = Some { Fault.Scenario.mtbf; mttr = 0.5 };
        }
      in
      let r = Fault.Harness.run ~tables ~power ~base ~spec ~trials () in
      row "  %-14.1f %-14.4f %-16.2f %-12.2f %-12.2f %.3f@." mtbf r.Fault.Harness.availability
        (100.0 *. r.Fault.Harness.delivered_fraction)
        r.Fault.Harness.recovery_p50 r.Fault.Harness.recovery_p99 r.Fault.Harness.sleep_ratio)
    [ 10.0; 3.0; 1.0 ];
  subsection "node (chassis) failures vs link failures at equal fault intensity";
  List.iter
    (fun (label, link_faults, node_faults) ->
      let spec =
        {
          Fault.Scenario.default with
          Fault.Scenario.seed = 42;
          duration;
          link_faults;
          node_faults;
        }
      in
      let r = Fault.Harness.run ~tables ~power ~base ~spec ~trials () in
      kvf label "availability %.4f, fallback routes %d, rejected wakes %d"
        r.Fault.Harness.availability r.Fault.Harness.fallback_routes
        r.Fault.Harness.rejected_wakes)
    [
      ("links only (mtbf 3 s)", Some { Fault.Scenario.mtbf = 3.0; mttr = 0.5 }, None);
      ("nodes only (mtbf 3 s)", None, Some { Fault.Scenario.mtbf = 3.0; mttr = 0.5 });
    ];
  subsection "single-link sweep (Section 4.3): steady-state loss after reconvergence";
  let sweep =
    Fault.Harness.single_link_sweep ~tables ~power ~base ~fail_at:1.0 ~grace:1.5 ~duration:4.0 ()
  in
  let lossless, lossy =
    List.partition (fun e -> e.Fault.Harness.sw_lost_bits_after <= 1.0) sweep
  in
  let partitioning =
    List.length (List.filter (fun e -> e.Fault.Harness.sw_partitioned <> []) sweep)
  in
  kvf "links absorbed with zero steady-state loss" "%d of %d" (List.length lossless)
    (List.length sweep);
  kvf "of the lossy cuts, partitioning" "%d of %d" partitioning (List.length lossy);
  note "a partitioning cut cannot be routed around; its loss is booked, not hidden"

