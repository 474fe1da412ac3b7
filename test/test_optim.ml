(* Tests for the energy-aware routing optimisation layer: feasibility
   routing, the power-down greedy, the GreenTE and ElasticTree heuristics,
   and cross-validation against the exact MILP. *)

module G = Topo.Graph
module State = Topo.State
module Path = Topo.Path
module Matrix = Traffic.Matrix

let arc_between g i j = Option.get (G.find_arc g i j)

(* -------------------- Feasible -------------------- *)

let test_place_respects_capacity () =
  let g = Fixtures.line 3 in
  (* 1G links; two 0.7G flows on the same pair direction cannot share. *)
  let f = Optim.Feasible.create g in
  (match Optim.Feasible.place f 0 2 0.7e9 with
  | Some p -> Alcotest.(check int) "routed" 2 (Path.hops p)
  | None -> Alcotest.fail "first flow must fit");
  Alcotest.(check bool) "second flow rejected" true (Optim.Feasible.place f 1 2 0.7e9 = None);
  (* A smaller one still fits. *)
  Alcotest.(check bool) "small flow fits" true (Optim.Feasible.place f 1 2 0.2e9 <> None)

let test_place_prefers_uncongested () =
  (* Flow 1->3 has two equal-latency choices, 1-0-3 and 1-2-3. Loading link
     1-0 to 90 % first makes the congestion-aware weight prefer 1-2-3. *)
  let g = Fixtures.square_with_diagonal () in
  let f = Optim.Feasible.create g in
  let l10 = (G.arc g (arc_between g 1 0)).G.link in
  ignore (Optim.Feasible.place f 1 0 0.9e9);
  match Optim.Feasible.place f 1 3 0.05e9 with
  | Some p -> Alcotest.(check bool) "detour" false (Path.uses_link g p l10)
  | None -> Alcotest.fail "should fit"

let test_margin () =
  let g = Fixtures.line 2 in
  let f = Optim.Feasible.create ~margin:0.5 g in
  Alcotest.(check bool) "above margin rejected" true (Optim.Feasible.place f 0 1 0.6e9 = None);
  Alcotest.(check bool) "below margin ok" true (Optim.Feasible.place f 0 1 0.4e9 <> None)

let test_remove_restores () =
  let g = Fixtures.line 2 in
  let f = Optim.Feasible.create g in
  let a01 = arc_between g 0 1 in
  ignore (Optim.Feasible.place f 0 1 0.8e9);
  Alcotest.(check (float 1.0)) "loaded" 0.8e9 (Optim.Feasible.load f a01);
  ignore (Optim.Feasible.remove f 0 1);
  Alcotest.(check (float 1e-6)) "restored" 0.0 (Optim.Feasible.load f a01);
  Alcotest.(check bool) "refit" true (Optim.Feasible.place f 0 1 0.9e9 <> None)

let test_trial_rollback () =
  let g = Fixtures.square_with_diagonal () in
  let f = Optim.Feasible.create g in
  ignore (Optim.Feasible.place f 0 2 0.5e9);
  let kept =
    Optim.Feasible.trial f (fun () ->
        ignore (Optim.Feasible.place f 1 3 0.5e9);
        ignore (Optim.Feasible.remove f 0 2);
        false)
  in
  Alcotest.(check bool) "trial rejected" false kept;
  Alcotest.(check bool) "0->2 back" true (Optim.Feasible.path_of f 0 2 <> None);
  Alcotest.(check bool) "1->3 gone" true (Optim.Feasible.path_of f 1 3 = None);
  (* Arc 1->2 carries both flows and is nearly full, so re-adding the
     removed 0->2 demand would round to a different residual:
     ((c - a) - b + a) - a <> (c - a) - b for these values. *)
  let g = Fixtures.line 3 in
  let f = Optim.Feasible.create g in
  ignore (Optim.Feasible.place f 0 2 (6e8 +. 0.3));
  ignore (Optim.Feasible.place f 1 2 (4e8 -. 0.7));
  let a12 = arc_between g 1 2 in
  let before = Optim.Feasible.residual f a12 in
  ignore (Optim.Feasible.trial f (fun () -> Optim.Feasible.remove f 0 2 = None));
  Alcotest.(check int64) "residual bit-identical" (Int64.bits_of_float before)
    (Int64.bits_of_float (Optim.Feasible.residual f a12));
  Alcotest.check_raises "nested trial" (Invalid_argument "Feasible.trial: nested trial") (fun () ->
      ignore (Optim.Feasible.trial f (fun () -> Optim.Feasible.trial f (fun () -> true))));
  Alcotest.(check bool) "usable after the raise" true (Optim.Feasible.trial f (fun () -> true))

let test_route_matrix () =
  let g = Topo.Geant.make () in
  let tm = Traffic.Gravity.make g ~total:(Eutil.Units.bps 20e9) () in
  let f = Optim.Feasible.create g in
  Alcotest.(check bool) "moderate load feasible" true (Optim.Feasible.route_matrix f tm);
  let utilization a = Optim.Feasible.load f a /. (G.arc g a).G.capacity in
  Alcotest.(check bool) "utilisation sane" true
    (List.for_all (fun a -> utilization a <= 1.0 +. 1e-9) (List.init (G.arc_count g) Fun.id))

let test_route_matrix_infeasible () =
  let g = Fixtures.line 2 in
  let tm = Matrix.of_flows 2 [ (0, 1, 2e9) ] in
  let f = Optim.Feasible.create g in
  Alcotest.(check bool) "over capacity" false (Optim.Feasible.route_matrix f tm)

(* -------------------- Minimal (power-down greedy) -------------------- *)

let eps_matrix g =
  let nodes = G.traffic_nodes g in
  let pairs =
    Array.to_list nodes
    |> List.concat_map (fun o ->
           Array.to_list nodes |> List.filter_map (fun d -> if o <> d then Some (o, d) else None))
  in
  Matrix.uniform (G.node_count g) ~pairs ~demand:1.0

let test_greedy_sheds_diagonal () =
  (* Square with diagonal and epsilon demands: a spanning tree suffices, so
     the greedy must power at most 3 of the 5 links. *)
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  match Optim.Minimal.power_down g power (eps_matrix g) with
  | Some r ->
      Alcotest.(check int) "spanning tree" 3 (State.active_links r.Optim.Minimal.state);
      Alcotest.(check bool) "power below full" true (r.Optim.Minimal.power_percent < 100.0)
  | None -> Alcotest.fail "feasible"

let test_greedy_keeps_needed_capacity () =
  (* Two 0.8G flows 0->2: tree is not enough; diagonal plus detour needed. *)
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 4 [ (0, 2, 0.8e9); (1, 3, 0.2e9); (3, 1, 0.8e9) ] in
  match Optim.Minimal.power_down g power tm with
  | Some r ->
      (* The returned configuration must actually carry the matrix. *)
      Alcotest.(check bool) "self-consistent" true
        (Optim.Minimal.evaluate g power tm r.Optim.Minimal.state <> None)
  | None -> Alcotest.fail "feasible"

let test_greedy_infeasible_demand () =
  let g = Fixtures.line 2 in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 2 [ (0, 1, 5e9) ] in
  Alcotest.(check bool) "infeasible" true (Optim.Minimal.power_down g power tm = None)

let test_greedy_deterministic () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let tm = Traffic.Gravity.make g ~total:(Eutil.Units.bps 30e9) () in
  let a = Option.get (Optim.Minimal.power_down g power tm) in
  let b = Option.get (Optim.Minimal.power_down g power tm) in
  Alcotest.(check bool) "same configuration" true
    (State.equal a.Optim.Minimal.state b.Optim.Minimal.state)

let test_greedy_geant_savings () =
  (* Sanity on the headline claim: at low demand on a redundant ISP topology
     the greedy sheds a substantial fraction of link power. *)
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let tm = Traffic.Gravity.make g ~total:(Eutil.Units.bps 10e9) () in
  let r = Option.get (Optim.Minimal.power_down g power tm) in
  Alcotest.(check bool)
    (Printf.sprintf "savings > 10%% (got %.1f%%)" (100.0 -. r.Optim.Minimal.power_percent))
    true
    (r.Optim.Minimal.power_percent < 90.0);
  (* All 23 PoPs originate traffic, so every router stays powered. *)
  Alcotest.(check int) "routers on" 23 (State.active_nodes r.Optim.Minimal.state)

let test_pinned_links_stay_on () =
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  let diag = (G.arc g (arc_between g 0 2)).G.link in
  let r =
    Option.get (Optim.Minimal.power_down ~pinned:(fun l -> l = diag) g power (eps_matrix g))
  in
  Alcotest.(check bool) "pinned link active" true (State.link_on r.Optim.Minimal.state diag)

let test_greedy_powers_off_routers () =
  (* Fat-tree with traffic only inside one edge switch: all aggregation and
     core switches can power off entirely. *)
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  let h0 = Topo.Fattree.host ft 0 and h1 = Topo.Fattree.host ft 1 in
  let tm = Matrix.of_flows (G.node_count g) [ (h0, h1, 1e8) ] in
  let r = Option.get (Optim.Minimal.power_down g power tm) in
  Array.iter
    (fun c -> Alcotest.(check bool) "core off" false (State.node_on r.Optim.Minimal.state c))
    ft.Topo.Fattree.cores;
  Array.iter
    (fun a -> Alcotest.(check bool) "agg off" false (State.node_on r.Optim.Minimal.state a))
    ft.Topo.Fattree.aggs

(* -------------------- GreenTE heuristic -------------------- *)

let test_greente_feasible_and_saves () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let tm = Traffic.Gravity.make g ~total:(Eutil.Units.bps 20e9) () in
  match Optim.Greente.minimal_subset g power tm with
  | Some r ->
      Alcotest.(check bool) "saves energy" true (r.Optim.Minimal.power_percent < 100.0);
      Alcotest.(check bool) "configuration carries demand" true
        (Optim.Minimal.evaluate g power tm r.Optim.Minimal.state <> None)
  | None -> Alcotest.fail "feasible"

let test_greente_no_better_than_greedy () =
  (* Restricting to k shortest paths cannot find configurations the
     unrestricted greedy would reject as infeasible; typically it saves less
     (or equal). Allow a small tolerance for tie-breaking noise. *)
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let tm = Traffic.Gravity.make g ~total:(Eutil.Units.bps 20e9) () in
  let full = Option.get (Optim.Minimal.power_down g power tm) in
  let ksp = Option.get (Optim.Greente.minimal_subset g power tm) in
  Alcotest.(check bool)
    (Printf.sprintf "greente %.1f%% >= greedy %.1f%% - 5" ksp.Optim.Minimal.power_percent
       full.Optim.Minimal.power_percent)
    true
    (ksp.Optim.Minimal.power_percent >= full.Optim.Minimal.power_percent -. 5.0)

(* -------------------- ElasticTree heuristic -------------------- *)

let test_elastic_near_traffic () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  (* Low intra-pod traffic: one aggregation switch per pod, cores off or 1. *)
  let tm = Traffic.Sine.fattree ft Traffic.Sine.Near ~peak:(Eutil.Units.bps 2e8) ~period:(Eutil.Units.seconds 100.0) 50.0 in
  match Optim.Elastic.minimal_subset ft power tm with
  | Some r ->
      let active_aggs =
        Array.fold_left
          (fun acc a -> if State.node_on r.Optim.Minimal.state a then acc + 1 else acc)
          0 ft.Topo.Fattree.aggs
      in
      Alcotest.(check int) "one agg per pod" 4 active_aggs;
      let active_cores =
        Array.fold_left
          (fun acc c -> if State.node_on r.Optim.Minimal.state c then acc + 1 else acc)
          0 ft.Topo.Fattree.cores
      in
      Alcotest.(check int) "no cores needed" 0 active_cores
  | None -> Alcotest.fail "feasible"

let test_elastic_far_traffic_uses_core () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  let tm = Traffic.Sine.fattree ft Traffic.Sine.Far ~peak:(Eutil.Units.bps 5e8) ~period:(Eutil.Units.seconds 100.0) 50.0 in
  match Optim.Elastic.minimal_subset ft power tm with
  | Some r ->
      let active_cores =
        Array.fold_left
          (fun acc c -> if State.node_on r.Optim.Minimal.state c then acc + 1 else acc)
          0 ft.Topo.Fattree.cores
      in
      Alcotest.(check bool) "cores active" true (active_cores >= 1);
      Alcotest.(check bool) "not all cores" true (active_cores < 4);
      Alcotest.(check bool) "carries demand" true
        (Optim.Minimal.evaluate g power tm r.Optim.Minimal.state <> None)
  | None -> Alcotest.fail "feasible"

let test_elastic_tracks_load () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  let at peak =
    let tm = Traffic.Sine.fattree ft Traffic.Sine.Far ~peak ~period:(Eutil.Units.seconds 100.0) 50.0 in
    (Option.get (Optim.Elastic.minimal_subset ft power tm)).Optim.Minimal.power_percent
  in
  let low = at (Eutil.Units.bps 1e8) and high = at (Eutil.Units.bps 9e8) in
  Alcotest.(check bool) (Printf.sprintf "power scales (%.0f%% < %.0f%%)" low high) true (low < high)

(* -------------------- Exact MILP cross-validation -------------------- *)

let test_formulation_triangle () =
  (* One tiny flow 0->1 on a triangle: optimum powers routers 0,1 and the
     direct link only. *)
  let g = Fixtures.triangle () in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 3 [ (0, 1, 1.0) ] in
  match Optim.Formulation.solve g power tm with
  | `Optimal e ->
      Alcotest.(check int) "one link" 1 (State.active_links e.Optim.Formulation.state);
      Alcotest.(check bool) "third router off" false (State.node_on e.Optim.Formulation.state 2);
      let p = Hashtbl.find e.Optim.Formulation.routing (0, 1) in (* lint: allow hashtbl-find *)
      Alcotest.(check int) "direct" 1 (Path.hops p);
      (* 2 chassis + the direct link's port/amplifier power. *)
      let link = (G.arc g (arc_between g 0 1)).G.link in
      Alcotest.(check (float 1e-6)) "power"
        ((2.0 *. 600.0) +. Eutil.Units.to_float (Power.Model.link_power power g link))
        e.Optim.Formulation.power_watts
  | _ -> Alcotest.fail "expected optimal"

let test_formulation_capacity_forces_split () =
  (* Square: two 0.8G flows 0->2 and 1->3. Sharing the diagonal (1-0-2-3 for
     the second flow) would need only 3 links but overloads the diagonal at
     1.6G > 1G; the optimum is still 3 links but with disjoint loads. *)
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 4 [ (0, 2, 0.8e9); (1, 3, 0.8e9) ] in
  match Optim.Formulation.solve g power tm with
  | `Optimal e ->
      Alcotest.(check int) "three links" 3 (State.active_links e.Optim.Formulation.state);
      (* Verify per-arc loads respect capacity. *)
      let loads = Array.make (G.arc_count g) 0.0 in
      Hashtbl.iter
        (fun (o, d) p ->
          Array.iter
            (fun a -> loads.(a) <- loads.(a) +. Matrix.get tm o d)
            p.Path.arcs)
        e.Optim.Formulation.routing;
      Array.iteri
        (fun a load ->
          Alcotest.(check bool) "capacity respected" true (load <= (G.arc g a).G.capacity +. 1.0))
        loads
  | _ -> Alcotest.fail "expected optimal"

let test_greedy_matches_exact_on_small_instances () =
  (* Cross-validation of the CPLEX substitute (DESIGN.md): on small random
     instances the greedy configuration power is close to the MILP optimum
     and never below it. *)
  let checked = ref 0 in
  for seed = 1 to 6 do
    let rng = Eutil.Prng.create seed in
    let b = G.Builder.create () in
    let n = 5 in
    let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
    for i = 1 to n - 1 do
      let j = Eutil.Prng.int rng i in
      ignore (G.Builder.add_link b ~capacity:1e9 ~latency:1e-3 nodes.(i) nodes.(j))
    done;
    for _ = 1 to 3 do
      let i = Eutil.Prng.int rng n and j = Eutil.Prng.int rng n in
      if i <> j then
        try ignore (G.Builder.add_link b ~capacity:1e9 ~latency:1e-3 nodes.(i) nodes.(j))
        with Invalid_argument _ -> ()
    done;
    let g = G.Builder.build b in
    let power = Power.Model.cisco12000 g in
    let tm =
      Matrix.of_flows n
        [ (0, n - 1, 0.3e9); (1, n - 2, 0.2e9) ]
    in
    match (Optim.Formulation.solve g power tm, Optim.Minimal.power_down g power tm) with
    | `Optimal exact, Some greedy ->
        incr checked;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: greedy %.0fW >= exact %.0fW" seed
             greedy.Optim.Minimal.power_watts exact.Optim.Formulation.power_watts)
          true
          (greedy.Optim.Minimal.power_watts >= exact.Optim.Formulation.power_watts -. 1e-6);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: greedy within 25%% of optimum" seed)
          true
          (greedy.Optim.Minimal.power_watts <= 1.25 *. exact.Optim.Formulation.power_watts)
    | `Infeasible, None -> ()
    | `Limit, _ -> () (* node budget exhausted: skip, do not fail *)
    | `Infeasible, Some _ -> Alcotest.fail "greedy found a config the MILP calls infeasible"
    | `Optimal _, None -> Alcotest.fail "MILP feasible but greedy failed"
  done;
  Alcotest.(check bool) "validated at least 3 instances" true (!checked >= 3)

let test_formulation_delay_bound () =
  (* Square with heavy-latency direct link excluded by a tight delay bound.
     Direct 0-2 has latency 1 ms; force bound below 2 ms so the 2-hop detour
     (2 ms) is out, direct is in. *)
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 4 [ (0, 2, 1.0) ] in
  match
    Optim.Formulation.solve
      ~delay_bound:(fun od -> if od = (0, 2) then Some 1.5e-3 else None)
      g power tm
  with
  | `Optimal e ->
      let p = Hashtbl.find e.Optim.Formulation.routing (0, 2) in (* lint: allow hashtbl-find *)
      Alcotest.(check int) "direct path under bound" 1 (Path.hops p)
  | _ -> Alcotest.fail "expected optimal"

let test_formulation_pinned () =
  let g = Fixtures.triangle () in
  let power = Power.Model.cisco12000 g in
  let tm = Matrix.of_flows 3 [ (0, 1, 1.0) ] in
  (* Pin link 1 (n1-n2): it must appear active even though unused. *)
  match Optim.Formulation.solve ~pin_link:(fun l -> l = 1) g power tm with
  | `Optimal e -> Alcotest.(check bool) "pinned on" true (State.link_on e.Optim.Formulation.state 1)
  | _ -> Alcotest.fail "expected optimal"

(* Property: the greedy result's routing is consistent — every flow of the
   matrix has a path over active links with total load within capacity. *)
let prop_greedy_consistent =
  QCheck.Test.make ~name:"greedy routing consistent with state and capacities" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g = Topo.Geant.make () in
      let power = Power.Model.cisco12000 g in
      let pairs = Traffic.Gravity.random_pairs g ~seed ~fraction:0.3 in
      let total = 5e9 +. (Eutil.Prng.float rng *. 30e9) in
      let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps total) () in
      match Optim.Minimal.power_down g power tm with
      | None -> true
      | Some r ->
          let ok_paths =
            List.for_all
              (fun (o, d, _) ->
                match Hashtbl.find_opt r.Optim.Minimal.routing (o, d) with
                | None -> false
                | Some p -> Topo.Path.active g r.Optim.Minimal.state p)
              (Matrix.flows tm)
          in
          let ok_caps =
            Array.for_all (fun x -> x)
              (Array.init (G.arc_count g) (fun a ->
                   r.Optim.Minimal.arc_load.(a) <= (G.arc g a).G.capacity +. 1.0))
          in
          ok_paths && ok_caps)

(* -------------------- Oracle: the frozen greedy -------------------- *)

(* A random connected instance of at most 10 nodes: random capacities (some
   asymmetric), latencies and float demands between a random subset of
   nodes, so router moves exist too. *)
let small_instance rng =
  let n = 3 + Eutil.Prng.int rng 8 in
  let b = G.Builder.create () in
  let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
  let link i j =
    let capacity = (0.4 +. Eutil.Prng.float rng) *. 1e9 in
    let capacity_back =
      if Eutil.Prng.float rng < 0.3 then (0.4 +. Eutil.Prng.float rng) *. 1e9 else capacity
    in
    let latency = 1e-4 +. (5e-3 *. Eutil.Prng.float rng) in
    if i <> j then
      try ignore (G.Builder.add_link b ~capacity ~capacity_back ~latency nodes.(i) nodes.(j))
      with Invalid_argument _ -> ()
  in
  for i = 1 to n - 1 do
    link i (Eutil.Prng.int rng i)
  done;
  for _ = 1 to n + Eutil.Prng.int rng n do
    link (Eutil.Prng.int rng n) (Eutil.Prng.int rng n)
  done;
  let g = G.Builder.build b in
  let ends = List.filter (fun _ -> Eutil.Prng.float rng < 0.6) (List.init n Fun.id) in
  let flows =
    List.concat_map
      (fun o ->
        List.filter_map
          (fun d ->
            if o <> d && Eutil.Prng.float rng < 0.5 then
              Some (o, d, (0.02 +. (0.3 *. Eutil.Prng.float rng)) *. 1e9)
            else None)
          ends)
      ends
  in
  (g, Power.Model.cisco12000 g, Matrix.of_flows n flows)

let bits x = Int64.bits_of_float x

(* Equal to the bit: active set, every pair's path, per-arc load and both
   power figures. *)
let same_result (a : Optim.Minimal.result option) (b : Optim.Minimal.result option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      String.equal (State.key a.state) (State.key b.state)
      && Hashtbl.length a.routing = Hashtbl.length b.routing
      && Hashtbl.fold
           (fun od p ok ->
             ok
             && match Hashtbl.find_opt b.routing od with Some q -> Path.equal p q | None -> false)
           a.routing true
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a.arc_load b.arc_load
      && Int64.equal (bits a.power_watts) (bits b.power_watts)
      && Int64.equal (bits a.power_percent) (bits b.power_percent)
  | _ -> false

let move_outcome o =
  Option.value
    (Obs.Registry.value Obs.Registry.default ~labels:[ ("outcome", o) ] "optim_greedy_moves_total")
    ~default:0.0

(* The cases in which the greedy turned some move down by the connectivity
   pre-check, and in which some reroute trial failed (read with Obs on). *)
let split_cases = ref 0
let trial_cases = ref 0

(* The undo-log greedy with its crossing scan, connectivity pre-check and
   target-stopped Dijkstra makes exactly the frozen greedy's decisions,
   under unrestricted and k-shortest rerouting, random margins and random
   pinned links. *)
let prop_power_down_vs_reference =
  QCheck.Test.make ~name:"power_down equals frozen reference" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g, power, tm = small_instance rng in
      let split0 = move_outcome "disconnected" and trial0 = move_outcome "rejected" in
      let margin = Eutil.Units.ratio (0.6 +. (0.4 *. Eutil.Prng.float rng)) in
      let pinned_links = Array.init (G.link_count g) (fun _ -> Eutil.Prng.float rng < 0.15) in
      let pinned l = pinned_links.(l) in
      let got, want =
        if Eutil.Prng.float rng < 0.5 then
          ( Optim.Minimal.power_down ~margin ~pinned g power tm,
            Greedy_reference.Minimal.power_down ~margin ~pinned g power tm )
        else begin
          let table = Optim.Greente.candidate_table g ~k:3 ~pairs:(Matrix.pairs tm) () in
          ( Optim.Minimal.power_down ~margin ~pinned ~reroute:(Optim.Minimal.ksp_reroute table) g
              power tm,
            Greedy_reference.Minimal.(
              power_down ~margin ~pinned ~reroute:(ksp_reroute table) g power tm) )
        end
      in
      if move_outcome "disconnected" > split0 then incr split_cases;
      if move_outcome "rejected" > trial0 then incr trial_cases;
      same_result want got)

(* Run with Obs on, so that the property also shows that both ways of
   turning a move down occur. *)
let test_power_down_vs_reference =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_power_down_vs_reference in
  Alcotest.test_case name speed (fun () ->
      split_cases := 0;
      trial_cases := 0;
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) run;
      Printf.printf "cases with a move that split a pair: %d; with a failed reroute trial: %d\n"
        !split_cases !trial_cases;
      Alcotest.(check bool) "some move split a pair" true (!split_cases > 0);
      Alcotest.(check bool) "some reroute trial failed" true (!trial_cases > 0))

(* [evaluate] on a random activity state routes like the frozen copy. *)
let prop_evaluate_vs_reference =
  QCheck.Test.make ~name:"evaluate equals frozen reference" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g, power, tm = small_instance rng in
      let st = State.all_on g in
      G.iter_links g ~f:(fun l -> if Eutil.Prng.float rng < 0.3 then State.set_link g st l false);
      same_result
        (Greedy_reference.Minimal.evaluate g power tm st)
        (Optim.Minimal.evaluate g power tm st))

(* A hand-built [Fattree.t] whose arrays or [k] disagree with its graph
   gets a typed error naming the missing link or the bad [k]. Each case
   breaks one field of a k = 4 fat-tree under far (cross-pod) traffic, so
   every kind of link is needed; [flows], when given, replaces that
   matrix. *)
let elastic_raises ?flows msg broken =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  let tm =
    match flows with
    | Some flows -> Matrix.of_flows (G.node_count g) (flows ft)
    | None ->
        Traffic.Sine.fattree ft Traffic.Sine.Far ~peak:(Eutil.Units.bps 5e8)
          ~period:(Eutil.Units.seconds 100.0) 50.0
  in
  Alcotest.check_raises "typed error" (Invalid_argument ("Elastic.minimal_subset: " ^ msg))
    (fun () -> ignore (Optim.Elastic.minimal_subset (broken ft) power tm))

let rotate a by = Array.init (Array.length a) (fun i -> a.((i + by) mod Array.length a))

let test_elastic_missing_host_edge () =
  elastic_raises "the fat-tree has no link h3_1_1-e0_0" (fun ft ->
      { ft with Topo.Fattree.hosts = rotate ft.Topo.Fattree.hosts 15 })

let test_elastic_missing_edge_agg () =
  elastic_raises "the fat-tree has no link e0_0-a1_0" (fun ft ->
      { ft with Topo.Fattree.aggs = rotate ft.Topo.Fattree.aggs 2 })

let test_elastic_missing_agg_core () =
  elastic_raises "the fat-tree has no link a0_0-c2" (fun ft ->
      { ft with Topo.Fattree.cores = rotate ft.Topo.Fattree.cores 2 })

let test_elastic_bad_k () =
  elastic_raises "fat-tree k must be even and >= 2, got 0" (fun ft ->
      { ft with Topo.Fattree.k = 0 })

(* A core switch has no pod, so a flow from or to one is turned down by
   name before any routing; before, indexing the per-pod totals with pod
   -1 raised "index out of bounds". Flows between an edge and an
   aggregation switch still solve. *)
let test_elastic_core_endpoint () =
  let core ft = ft.Topo.Fattree.cores.(1) and host ft = ft.Topo.Fattree.hosts.(0) in
  let msg = "flow endpoint c1 is not a host, edge or aggregation switch" in
  elastic_raises ~flows:(fun ft -> [ (core ft, host ft, 1e8) ]) msg Fun.id;
  elastic_raises ~flows:(fun ft -> [ (host ft, core ft, 1e8) ]) msg Fun.id;
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let tm =
    Matrix.of_flows (G.node_count g) [ (ft.Topo.Fattree.edges.(0), ft.Topo.Fattree.aggs.(1), 1e8) ]
  in
  Alcotest.(check bool) "edge to aggregation solves" true
    (Option.is_some (Optim.Elastic.minimal_subset ft (Power.Model.commodity_dc g) tm))

(* ElasticTree on random host-pair matrices over k = 4 and k = 6
   fat-trees: the subset it picks routes, to the bit, as the frozen
   greedy's [evaluate] routes that subset. When it finds none, the frozen
   [evaluate] cannot carry the matrix on the whole fat-tree either. *)
let prop_elastic_vs_reference =
  let fattrees = [| Topo.Fattree.make 4; Topo.Fattree.make 6 |] in
  QCheck.Test.make ~name:"elastic equals frozen reference" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let ft = fattrees.(Eutil.Prng.int rng 2) in
      let g = ft.Topo.Fattree.graph and hosts = ft.Topo.Fattree.hosts in
      let power = Power.Model.commodity_dc g in
      let nh = Array.length hosts in
      let flows =
        List.init
          (1 + Eutil.Prng.int rng 16)
          (fun _ ->
            let o = Eutil.Prng.int rng nh in
            let d = (o + 1 + Eutil.Prng.int rng (nh - 1)) mod nh in
            (hosts.(o), hosts.(d), (0.05 +. (0.6 *. Eutil.Prng.float rng)) *. 1e9))
      in
      let tm = Matrix.of_flows (G.node_count g) flows in
      match Optim.Elastic.minimal_subset ft power tm with
      | Some r ->
          same_result (Greedy_reference.Minimal.evaluate g power tm r.Optim.Minimal.state) (Some r)
      | None -> Greedy_reference.Minimal.evaluate g power tm (State.all_on g) = None)

(* The greedy's work counters: every unpinned move is skipped, turned down
   by the connectivity pre-check, rejected by its reroute trial or accepted
   exactly once, and nothing is counted with Obs off. *)
let test_greedy_counters () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_pairs g ~seed:7 ~fraction:0.2 in
  let tm = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps 20e9) () in
  let pinned l = l mod 5 = 0 in
  let has_demand = Array.make (G.node_count g) false in
  Matrix.iter_flows tm ~f:(fun o d _ ->
      has_demand.(o) <- true;
      has_demand.(d) <- true);
  let router_moves =
    G.fold_nodes g ~init:0 ~f:(fun acc n ->
        let free = Array.for_all (fun a -> not (pinned (G.arc g a).G.link)) (G.out_arcs g n) in
        if has_demand.(n) || G.role g n = G.Host || not free then acc else acc + 1)
  in
  let link_moves = G.fold_links g ~init:0 ~f:(fun acc l -> if pinned l then acc else acc + 1) in
  let read ?labels name =
    Option.value (Obs.Registry.value Obs.Registry.default ?labels name) ~default:0.0
  in
  let outcomes () =
    List.fold_left
      (fun acc o -> acc +. read ~labels:[ ("outcome", o) ] "optim_greedy_moves_total")
      0.0 [ "skipped"; "disconnected"; "rejected"; "accepted" ]
  in
  let outcome o = read ~labels:[ ("outcome", o) ] "optim_greedy_moves_total" in
  let displaced () = read "optim_greedy_displaced_flows_total" in
  let moves0 = outcomes () and displaced0 = displaced () in
  let disconnected0 = outcome "disconnected" and rejected0 = outcome "rejected" in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () -> ignore (Optim.Minimal.power_down ~pinned g power tm));
  Alcotest.(check (float 0.0)) "one outcome per unpinned move"
    (float_of_int (router_moves + link_moves))
    (outcomes () -. moves0);
  Alcotest.(check bool) "displaced flows counted" true (displaced () > displaced0);
  Alcotest.(check bool) "some move split a pair" true (outcome "disconnected" > disconnected0);
  Alcotest.(check bool) "some reroute trial failed" true (outcome "rejected" > rejected0);
  let moves1 = outcomes () and displaced1 = displaced () in
  ignore (Optim.Minimal.power_down ~pinned g power tm);
  Alcotest.(check (float 0.0)) "no moves counted with Obs off" moves1 (outcomes ());
  Alcotest.(check (float 0.0)) "no flows counted with Obs off" displaced1 (displaced ())

(* -------------------- Feasible input guards -------------------- *)

(* A NaN margin used to pass the [margin <= 0.0] guard and make every later
   [place] return [None]. *)
let test_create_nan_margin () =
  Alcotest.check_raises "nan margin" (Invalid_argument "Feasible.create: margin") (fun () ->
      ignore (Optim.Feasible.create ~margin:Float.nan (Fixtures.line 2)))

(* A NaN demand used to pass the [demand <= 0.0] guard and come back as an
   infeasible flow. *)
let test_place_nan_demand () =
  let f = Optim.Feasible.create (Fixtures.line 2) in
  Alcotest.check_raises "nan demand" (Invalid_argument "Feasible.place: demand") (fun () ->
      ignore (Optim.Feasible.place f 0 1 Float.nan));
  Alcotest.(check bool) "nothing placed" true (Optim.Feasible.path_of f 0 1 = None)

(* [place_on] had no demand check: a negative demand was committed and
   raised every residual on its path. *)
let test_place_on_demand () =
  let g = Fixtures.line 2 in
  let f = Optim.Feasible.create g in
  let p = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:1 ()) in
  let a = arc_between g 0 1 in
  let before = Optim.Feasible.residual f a in
  List.iter
    (fun demand ->
      Alcotest.check_raises "bad demand" (Invalid_argument "Feasible.place_on: demand") (fun () ->
          ignore (Optim.Feasible.place_on f p demand)))
    [ -5e9; 0.0; Float.nan ];
  Alcotest.(check int64) "residual untouched" (Int64.bits_of_float before)
    (Int64.bits_of_float (Optim.Feasible.residual f a));
  Alcotest.(check bool) "nothing placed" true (Optim.Feasible.path_of f 0 1 = None)

(* -------------------- Oracle: the crossing scan -------------------- *)

let same_flows =
  List.equal (fun (o1, d1, v1) (o2, d2, v2) -> o1 = o2 && d1 = d2 && Float.equal v1 v2)

(* [crossing] by its definition: the placed flows whose path uses one of
   [links], in reroute order (volume descending, then origin, then
   destination). *)
let crossing_by_definition f g links =
  List.filter
    (fun (o, d, _) ->
      match Optim.Feasible.path_of f o d with
      | Some p -> List.exists (Path.uses_link g p) links
      | None -> false)
    (Optim.Feasible.flows f)
  |> List.sort
       (Eutil.Order.by
          (fun (o, d, v) -> (v, o, d))
          (Eutil.Order.triple (Eutil.Order.desc Float.compare) Int.compare Int.compare))

(* Random sequences of [place], [place_on], [remove] and trials that are
   accepted, rejected or raise, on a small instance with some links off.
   Volumes come from three values and pairs are placed in random order, so
   the slot order is often not reroute order. After each step, [flows] and
   [path_of] equal a shadow model of the bindings, and [crossing] on random
   link sets equals its definition. *)
let prop_crossing_vs_definition =
  QCheck.Test.make ~name:"crossing equals its definition" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g, _, _ = small_instance rng in
      let n = G.node_count g and n_links = G.link_count g in
      let st = State.all_on g in
      G.iter_links g ~f:(fun l -> if Eutil.Prng.float rng < 0.15 then State.set_link g st l false);
      let f = Optim.Feasible.create ~state:st g in
      let volumes = [| 0.1e9; 0.2e9; 0.3e9 |] in
      let same_binding (p, v) (q, w) = Path.equal p q && Float.equal v w in
      (* One random operation against the model [m]; false on a mismatch. *)
      let step m =
        let o = Eutil.Prng.int rng n and d = Eutil.Prng.int rng n in
        let v = volumes.(Eutil.Prng.int rng 3) in
        let placed = List.mem_assoc (o, d) !m in
        let raises op = try ignore (op ()); false with Invalid_argument _ -> true in
        match Eutil.Prng.int rng 3 with
        | 0 when placed -> raises (fun () -> Optim.Feasible.place f o d v)
        | 0 ->
            (match Optim.Feasible.place f o d v with
            | Some p -> m := ((o, d), (p, v)) :: !m
            | None -> ());
            true
        | 1 -> (
            match Routing.Dijkstra.shortest_path g ~src:o ~dst:d () with
            | None -> true
            | Some p when placed -> raises (fun () -> Optim.Feasible.place_on f p v)
            | Some p ->
                if Optim.Feasible.place_on f p v then m := ((o, d), (p, v)) :: !m;
                true)
        | _ ->
            let want = List.assoc_opt (o, d) !m in
            m := List.remove_assoc (o, d) !m;
            Option.equal same_binding want (Optim.Feasible.remove f o d)
      in
      let model = ref [] in
      let agrees () =
        let want =
          List.sort
            (Eutil.Order.triple Int.compare Int.compare Float.compare)
            (List.map (fun ((o, d), (_, v)) -> (o, d, v)) !model)
        in
        same_flows want (Optim.Feasible.flows f)
        && List.for_all
             (fun k ->
               let o = k / n and d = k mod n in
               Option.equal Path.equal
                 (Option.map fst (List.assoc_opt (o, d) !model))
                 (Optim.Feasible.path_of f o d))
             (List.init (n * n) Fun.id)
        && List.for_all
             (fun _ ->
               let links = List.init (1 + Eutil.Prng.int rng 3) (fun _ -> Eutil.Prng.int rng n_links) in
               same_flows (crossing_by_definition f g links) (Optim.Feasible.crossing f links))
             [ (); (); () ]
      in
      List.for_all
        (fun _ ->
          let ok =
            if Eutil.Prng.float rng < 0.25 then begin
              let inner = ref !model and ok = ref true in
              let outcome = Eutil.Prng.int rng 3 in
              (match
                 Optim.Feasible.trial f (fun () ->
                     for _ = 1 to 1 + Eutil.Prng.int rng 4 do
                       ok := step inner && !ok
                     done;
                     if outcome = 2 then raise Exit;
                     outcome = 0)
               with
              | true -> model := !inner
              | false -> ()
              | exception Exit -> ());
              !ok
            end
            else step model
          in
          ok && agrees ())
        (List.init 14 Fun.id))

let () =
  Alcotest.run "optim"
    [
      ( "feasible",
        [
          Alcotest.test_case "capacity" `Quick test_place_respects_capacity;
          Alcotest.test_case "congestion avoidance" `Quick test_place_prefers_uncongested;
          Alcotest.test_case "margin" `Quick test_margin;
          Alcotest.test_case "remove restores" `Quick test_remove_restores;
          Alcotest.test_case "trial rollback" `Quick test_trial_rollback;
          Alcotest.test_case "route matrix" `Quick test_route_matrix;
          Alcotest.test_case "route matrix infeasible" `Quick test_route_matrix_infeasible;
          Alcotest.test_case "nan margin" `Quick test_create_nan_margin;
          Alcotest.test_case "nan demand" `Quick test_place_nan_demand;
          Alcotest.test_case "place_on demand" `Quick test_place_on_demand;
          QCheck_alcotest.to_alcotest prop_crossing_vs_definition;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "sheds diagonal" `Quick test_greedy_sheds_diagonal;
          Alcotest.test_case "keeps needed capacity" `Quick test_greedy_keeps_needed_capacity;
          Alcotest.test_case "infeasible demand" `Quick test_greedy_infeasible_demand;
          Alcotest.test_case "deterministic" `Quick test_greedy_deterministic;
          Alcotest.test_case "geant savings" `Quick test_greedy_geant_savings;
          Alcotest.test_case "pinned links" `Quick test_pinned_links_stay_on;
          Alcotest.test_case "routers off in fat-tree" `Quick test_greedy_powers_off_routers;
          QCheck_alcotest.to_alcotest prop_greedy_consistent;
          test_power_down_vs_reference;
          QCheck_alcotest.to_alcotest prop_evaluate_vs_reference;
          Alcotest.test_case "work counters" `Quick test_greedy_counters;
        ] );
      ( "greente",
        [
          Alcotest.test_case "feasible and saves" `Quick test_greente_feasible_and_saves;
          Alcotest.test_case "bounded by greedy" `Quick test_greente_no_better_than_greedy;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "near traffic" `Quick test_elastic_near_traffic;
          Alcotest.test_case "far traffic uses core" `Quick test_elastic_far_traffic_uses_core;
          Alcotest.test_case "tracks load" `Quick test_elastic_tracks_load;
          Alcotest.test_case "missing host-edge link" `Quick test_elastic_missing_host_edge;
          Alcotest.test_case "missing edge-agg link" `Quick test_elastic_missing_edge_agg;
          Alcotest.test_case "missing agg-core link" `Quick test_elastic_missing_agg_core;
          Alcotest.test_case "bad k" `Quick test_elastic_bad_k;
          Alcotest.test_case "core endpoint" `Quick test_elastic_core_endpoint;
          QCheck_alcotest.to_alcotest prop_elastic_vs_reference;
        ] );
      ( "exact",
        [
          Alcotest.test_case "triangle optimum" `Quick test_formulation_triangle;
          Alcotest.test_case "capacity forces split" `Quick test_formulation_capacity_forces_split;
          Alcotest.test_case "greedy vs exact" `Slow test_greedy_matches_exact_on_small_instances;
          Alcotest.test_case "delay bound" `Quick test_formulation_delay_bound;
          Alcotest.test_case "pinned link" `Quick test_formulation_pinned;
        ] );
    ]
