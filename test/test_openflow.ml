(* Tests for the OpenFlow-style control/data plane: flow tables, the
   REsPoNse controller compilation, and the packet-level simulator —
   including cross-validation against the fluid simulator. *)

module G = Topo.Graph
module Path = Topo.Path
module FT = Openflow.Flowtable

(* Data-plane walk: follow the controller's flow tables hop by hop for a
   flow with the given select key. [None] when some switch has no matching
   entry (or drops). *)
let route ctl ~src ~dst ~key =
  let g = Openflow.Controller.graph ctl in
  let rec walk node acc guard =
    if node = dst then (match acc with [] -> None | l -> Some (Path.of_arcs g (List.rev l)))
    else if guard = 0 then None
    else
      match FT.lookup (Openflow.Controller.table_of ctl node) ~src ~dst with
      | None -> None
      | Some e -> (
          match FT.select e ~key with
          | None -> None
          | Some a -> walk (G.arc g a).G.dst (a :: acc) (guard - 1))
  in
  walk src [] (G.node_count g)

(* -------------------- Flow table -------------------- *)

let test_priority_and_wildcards () =
  let t = FT.create () in
  FT.add t ~priority:1 ~matcher:{ FT.src = None; dst = None } ~action:FT.Drop;
  FT.add t ~priority:10
    ~matcher:{ FT.src = Some 1; dst = Some 2 }
    ~action:(FT.Forward [ (7, 1.0) ]);
  (match FT.lookup t ~src:1 ~dst:2 with
  | Some e -> Alcotest.(check bool) "specific entry wins" true (e.FT.action <> FT.Drop)
  | None -> Alcotest.fail "entry expected");
  (match FT.lookup t ~src:3 ~dst:4 with
  | Some e -> Alcotest.(check bool) "wildcard catches the rest" true (e.FT.action = FT.Drop)
  | None -> Alcotest.fail "wildcard expected")

let test_counters () =
  let t = FT.create () in
  FT.add t ~priority:1 ~matcher:{ FT.src = Some 0; dst = Some 1 } ~action:(FT.Forward [ (0, 1.0) ]);
  let e = Option.get (FT.lookup t ~src:0 ~dst:1) in
  FT.account e ~bytes:100.0;
  FT.account e ~bytes:50.0;
  Alcotest.(check int) "packets" 2 e.FT.packets;
  Alcotest.(check (float 1e-9)) "bytes" 150.0 e.FT.bytes

let test_select_deterministic_and_proportional () =
  let t = FT.create () in
  FT.add t ~priority:1
    ~matcher:{ FT.src = Some 0; dst = Some 1 }
    ~action:(FT.Forward [ (100, 3.0); (200, 1.0) ]);
  let e = Option.get (FT.lookup t ~src:0 ~dst:1) in
  (* Determinism. *)
  for key = 0 to 20 do
    Alcotest.(check bool) "same key same arc" true (FT.select e ~key = FT.select e ~key)
  done;
  (* Proportionality over many keys: ~75 % to arc 100. *)
  let hits = ref 0 in
  let n = 2000 in
  for key = 0 to n - 1 do
    if FT.select e ~key = Some 100 then incr hits
  done;
  let share = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "share %.2f in [0.70, 0.80]" share) true
    (share > 0.70 && share < 0.80);
  (* Drop behaviour. *)
  let d = FT.create () in
  FT.add d ~priority:1 ~matcher:{ FT.src = None; dst = None } ~action:FT.Drop;
  let de = Option.get (FT.lookup d ~src:0 ~dst:1) in
  Alcotest.(check bool) "drop selects nothing" true (FT.select de ~key:5 = None)

(* -------------------- Controller -------------------- *)

let fig3_controller () =
  let ex, tables = Fixtures.fig3_tables () in
  let ctl = Openflow.Controller.create tables in
  (ex, tables, ctl)

let test_controller_programs_always_on () =
  let ex, tables, ctl = fig3_controller () in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  (* The route followed in the data plane is exactly the always-on path. *)
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  let expected = (Option.get (Response.Tables.find tables a k)).Response.Tables.always_on in
  (match route ctl ~src:a ~dst:k ~key:0 with
  | Some p -> Alcotest.(check bool) "always-on route" true (Path.equal p expected)
  | None -> Alcotest.fail "route expected");
  (* Entry count: 2 pairs x 3 hops. *)
  Alcotest.(check int) "TCAM footprint" 6 (Openflow.Controller.tables_installed ctl)

let test_controller_reprogram_on_split_change () =
  let ex, tables, ctl = fig3_controller () in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  let te = Response.Te.create tables Response.Te.default_config in
  Response.Te.force_split te a k [| 0.0; 1.0 |];
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  let upper = List.hd (Option.get (Response.Tables.find tables a k)).Response.Tables.on_demand in
  (match route ctl ~src:a ~dst:k ~key:3 with
  | Some p -> Alcotest.(check bool) "moved to on-demand path" true (Path.equal p upper)
  | None -> Alcotest.fail "route expected")

let test_controller_route_missing_pair () =
  let ex, _, ctl = fig3_controller () in
  let te_tables_missing =
    route ctl ~src:ex.Topo.Example.d ~dst:ex.Topo.Example.k ~key:0
  in
  Alcotest.(check bool) "unprogrammed controller has no route" true (te_tables_missing = None)

(* -------------------- Packet simulator -------------------- *)

let test_pnet_delivers_and_measures_latency () =
  let ex, tables, ctl = fig3_controller () in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let r = Openflow.Pnet.run ctl ~flows:[ (a, k, 2.5e6); (c, k, 2.5e6) ] ~duration:2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "delivered %.3f" r.Openflow.Pnet.delivered_fraction)
    true
    (r.Openflow.Pnet.delivered_fraction > 0.99);
  (* Latency = 3 hops x (16.67 ms propagation + 1 ms serialisation at
     10 Mbit/s for 1250 B). *)
  List.iter
    (fun f ->
      let expected = 3.0 *. (16.67e-3 +. 1e-3) in
      Alcotest.(check bool)
        (Printf.sprintf "latency %.1f ms" (1e3 *. f.Openflow.Pnet.mean_latency))
        true
        (abs_float (f.Openflow.Pnet.mean_latency -. expected) < 2e-3))
    r.Openflow.Pnet.flows

let test_pnet_drops_under_overload () =
  let ex, tables, ctl = fig3_controller () in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  (* 16 Mbit/s offered over one 10 Mbit/s always-on path: ~40 % loss. *)
  let r = Openflow.Pnet.run ctl ~flows:[ (a, k, 8e6); (c, k, 8e6) ] ~duration:2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "lossy (%.2f delivered)" r.Openflow.Pnet.delivered_fraction)
    true
    (r.Openflow.Pnet.delivered_fraction < 0.75);
  let total_drops =
    List.fold_left (fun acc f -> acc + f.Openflow.Pnet.dropped) 0 r.Openflow.Pnet.flows
  in
  Alcotest.(check bool) "drops counted" true (total_drops > 0)

let test_pnet_split_traffic_uses_both_paths () =
  let ex, tables, ctl = fig3_controller () in
  let g = ex.Topo.Example.graph in
  let te = Response.Te.create tables Response.Te.default_config in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  Response.Te.force_split te a k [| 0.5; 0.5 |];
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  (* 64 micro-flows from A so the select hash can spread. *)
  let flows = List.init 64 (fun _ -> (a, k, 0.1e6)) in
  let r = Openflow.Pnet.run ctl ~flows ~duration:1.0 in
  let arc i j = Option.get (G.find_arc g i j) in
  let middle = r.Openflow.Pnet.arc_bytes.(arc ex.Topo.Example.e ex.Topo.Example.h) in
  let upper = r.Openflow.Pnet.arc_bytes.(arc ex.Topo.Example.d ex.Topo.Example.g) in
  Alcotest.(check bool) "middle used" true (middle > 0.0);
  Alcotest.(check bool) "upper used" true (upper > 0.0);
  let share = middle /. (middle +. upper) in
  Alcotest.(check bool) (Printf.sprintf "split share %.2f" share) true
    (share > 0.3 && share < 0.7)

let test_pnet_agrees_with_fluid_sim () =
  (* Cross-validation (DESIGN.md): the packet data plane and the fluid model
     deliver the same steady-state rates for the Figure 7 workload. *)
  let ex, tables, ctl = fig3_controller () in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let packet = Openflow.Pnet.run ctl ~flows:[ (a, k, 2.5e6); (c, k, 2.5e6) ] ~duration:3.0 in
  let demand = Fixtures.fig7_demand ex in
  let fluid =
    Netsim.Sim.run ~tables
      ~power:(Power.Model.cisco12000 ex.Topo.Example.graph)
      ~events:[ Netsim.Sim.Set_demand (0.0, demand) ]
      ~duration:3.0 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "both deliver ~everything (packet %.3f, fluid %.3f)"
       packet.Openflow.Pnet.delivered_fraction fluid.Netsim.Sim.delivered_fraction)
    true
    (packet.Openflow.Pnet.delivered_fraction > 0.99
    && fluid.Netsim.Sim.delivered_fraction > 0.95)


let test_full_pipeline_geant () =
  (* End-to-end integration: precompute energy-critical paths on the ISP
     topology, compile them into OpenFlow tables, and deliver packets. *)
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:5 ~fraction:0.4 in
  let tables = Response.Framework.precompute g power ~pairs in
  let ctl = Openflow.Controller.create tables in
  let te = Response.Te.create tables Response.Te.default_config in
  Openflow.Controller.program ctl ~splits:(Response.Te.split te);
  (* Every pair is routable in the data plane along its always-on path. *)
  List.iter
    (fun (o, d) ->
      match route ctl ~src:o ~dst:d ~key:0 with
      | Some p ->
          let expected = (Option.get (Response.Tables.find tables o d)).Response.Tables.always_on in
          Alcotest.(check bool) "data plane = always-on" true (Path.equal p expected)
      | None -> Alcotest.fail "unroutable pair")
    pairs;
  (* Packets flow: 20 Mbit/s per pair for 100 ms. *)
  let flows = List.map (fun (o, d) -> (o, d, 20e6)) pairs in
  let r = Openflow.Pnet.run ctl ~flows ~duration:0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "delivered %.3f" r.Openflow.Pnet.delivered_fraction)
    true
    (r.Openflow.Pnet.delivered_fraction > 0.98)

(* Property: for random splits, the controller's data-plane walk always
   follows one of the pair's installed paths. *)
let prop_route_is_installed_path =
  QCheck.Test.make ~name:"data-plane route is an installed path" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 0 100))
    (fun (seed, key) ->
      let ex, tables = Fixtures.fig3_tables () in
      ignore ex;
      let rng = Eutil.Prng.create seed in
      let ctl = Openflow.Controller.create tables in
      let te = Response.Te.create tables Response.Te.default_config in
      List.iter
        (fun (o, d) ->
          let w = Eutil.Prng.float rng in
          Response.Te.force_split te o d [| w; 1.0 -. w |])
        (Response.Tables.pairs tables);
      Openflow.Controller.program ctl ~splits:(Response.Te.split te);
      List.for_all
        (fun (o, d) ->
          match route ctl ~src:o ~dst:d ~key with
          | None -> false
          | Some p ->
              let entry = Option.get (Response.Tables.find tables o d) in
              Array.exists (Path.equal p) (Response.Tables.paths entry))
        (Response.Tables.pairs tables))

let () =
  Alcotest.run "openflow"
    [
      ( "flowtable",
        [
          Alcotest.test_case "priority and wildcards" `Quick test_priority_and_wildcards;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "select" `Quick test_select_deterministic_and_proportional;
        ] );
      ( "controller",
        [
          Alcotest.test_case "programs always-on" `Quick test_controller_programs_always_on;
          Alcotest.test_case "reprogram on split change" `Quick test_controller_reprogram_on_split_change;
          Alcotest.test_case "missing pair" `Quick test_controller_route_missing_pair;
        ] );
      ( "pnet",
        [
          Alcotest.test_case "delivers with correct latency" `Quick test_pnet_delivers_and_measures_latency;
          Alcotest.test_case "drops under overload" `Quick test_pnet_drops_under_overload;
          Alcotest.test_case "weighted split" `Quick test_pnet_split_traffic_uses_both_paths;
          Alcotest.test_case "agrees with fluid sim" `Quick test_pnet_agrees_with_fluid_sim;
          Alcotest.test_case "full pipeline on geant" `Quick test_full_pipeline_geant;
          QCheck_alcotest.to_alcotest prop_route_is_installed_path;
        ] );
    ]
