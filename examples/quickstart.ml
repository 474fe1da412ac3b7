(* Quickstart: precompute REsPoNse energy-critical paths for a GEANT-like
   ISP topology and see how network power scales with offered load.

     dune exec examples/quickstart.exe *)

module U = Eutil.Units

let () =
  (* 1. A topology and a power model. *)
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  Format.printf "Topology: %a@." Topo.Graph.pp g;
  Format.printf "Full-power consumption: %.1f kW@."
    (U.to_float (Power.Model.full power g) /. 1e3);

  (* 2. Precompute the three routing tables (always-on, on-demand, failover)
     for a random subset of origin-destination pairs, exactly once. With
     traffic estimates available (as for GEANT), the always-on paths are
     computed from the off-peak matrix and the on-demand paths from the peak
     matrix; without them, use the demand-oblivious default config. *)
  let pairs = Traffic.Gravity.random_pairs g ~seed:7 ~fraction:0.5 in
  let off_peak = Traffic.Gravity.make g ~pairs ~total:(U.gbps 8.0) () in
  let peak = Traffic.Gravity.make g ~pairs ~total:(U.gbps 40.0) () in
  let config =
    {
      Response.Framework.default with
      always_on_mode = Response.Always_on.Off_peak off_peak;
      on_demand = Response.Framework.Solver peak;
    }
  in
  let tables = Response.Framework.precompute ~config g power ~pairs in
  Format.printf "Installed %d pairs, up to %d paths each.@."
    (List.length (Response.Tables.pairs tables))
    (Response.Tables.n_tables tables);

  (* 3. Inspect one pair's energy-critical paths. *)
  (match pairs with
  | (o, d) :: _ -> (
      match Response.Tables.find tables o d with
      | Some e ->
          Format.printf "@.Energy-critical paths %s -> %s:@." (Topo.Graph.name g o)
            (Topo.Graph.name g d);
          Format.printf "  always-on: %a@." (Topo.Path.pp g) e.Response.Tables.always_on;
          List.iter (Format.printf "  on-demand: %a@." (Topo.Path.pp g)) e.Response.Tables.on_demand;
          Option.iter (Format.printf "  failover:  %a@." (Topo.Path.pp g)) e.Response.Tables.failover
      | None -> ())
  | [] -> ());

  (* 4. Energy proportionality: evaluate the steady state REsPoNseTE reaches
     for increasing gravity-model demand. *)
  Format.printf "@.%-14s %-12s %-10s %s@." "load" "power [%]" "levels" "max util";
  List.iter
    (fun gbits ->
      let tm = Traffic.Gravity.make g ~pairs ~total:(U.gbps gbits) () in
      let e = Response.Framework.evaluate tables power tm in
      Format.printf "%-14s %-12.1f %-10d %.2f@."
        (Printf.sprintf "%.0f Gbit/s" gbits)
        e.Response.Framework.power_percent e.Response.Framework.levels_activated
        e.Response.Framework.max_utilization)
    [ 1.0; 5.0; 10.0; 20.0; 40.0; 80.0 ];
  Format.printf
    "@.The network sleeps what it does not use: power follows load without@.\
     recomputing any routing table.@."
