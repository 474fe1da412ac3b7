(* Tests for the core REsPoNse framework: tables, always-on / on-demand /
   failover computation, the quasi-static evaluation, the REsPoNseTE
   controller, critical-path ranking and trace replay. *)

module G = Topo.Graph
module State = Topo.State
module Path = Topo.Path
module Matrix = Traffic.Matrix

let geant = Topo.Geant.make ()
let geant_power = Power.Model.cisco12000 geant

let all_pairs g =
  let nodes = G.traffic_nodes g in
  Array.to_list nodes
  |> List.concat_map (fun o ->
         Array.to_list nodes |> List.filter_map (fun d -> if o <> d then Some (o, d) else None))

let sp g o d = Option.get (Routing.Dijkstra.shortest_path g ~src:o ~dst:d ())

(* -------------------- Tables -------------------- *)

let test_tables_basics () =
  let g = Fixtures.square_with_diagonal () in
  let e =
    {
      Response.Tables.origin = 0;
      dest = 2;
      always_on = sp g 0 2;
      on_demand = [];
      failover = None;
    }
  in
  let t = Response.Tables.make g [ e ] in
  Alcotest.(check int) "pairs" 1 (List.length (Response.Tables.pairs t));
  Alcotest.(check bool) "find" true (Response.Tables.find t 0 2 <> None);
  Alcotest.(check bool) "absent" true (Response.Tables.find t 2 0 = None);
  Alcotest.(check int) "n tables" 1 (Response.Tables.n_tables t)

let test_tables_reject_bad_path () =
  let g = Fixtures.square_with_diagonal () in
  let bad =
    { Response.Tables.origin = 1; dest = 3; always_on = sp g 0 2; on_demand = []; failover = None }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Response.Tables.make g [ bad ]);
       false
     with Invalid_argument _ -> true)

let test_tables_states () =
  let g = Fixtures.square_with_diagonal () in
  let diag_path = sp g 0 2 in
  let detour = Option.get (Routing.Disjoint.max_disjoint g ~protect:[ diag_path ] ~src:0 ~dst:2 ()) in
  let e =
    { Response.Tables.origin = 0; dest = 2; always_on = diag_path; on_demand = [ detour ]; failover = None }
  in
  let t = Response.Tables.make g [ e ] in
  let ao = Response.Tables.always_on_state t in
  Alcotest.(check int) "always-on links" 1 (State.active_links ao)

(* -------------------- Always-on -------------------- *)

let test_always_on_oblivious_connects_everything () =
  let pairs = all_pairs geant in
  let r = Response.Always_on.compute geant geant_power ~pairs () in
  Alcotest.(check int) "every pair routed" (List.length pairs)
    (Hashtbl.length r.Response.Always_on.paths);
  (* Minimal-power connectivity: close to a spanning tree (22 links for 23
     nodes; a couple extra are acceptable). *)
  let links = State.active_links r.Response.Always_on.state in
  Alcotest.(check bool) (Printf.sprintf "near-tree (%d links)" links) true (links <= 26);
  (* All paths live inside the always-on state. *)
  Hashtbl.iter
    (fun _ p ->
      Alcotest.(check bool) "path within state" true
        (Path.active geant r.Response.Always_on.state p))
    r.Response.Always_on.paths

let test_always_on_latency_bound () =
  let pairs = all_pairs geant in
  let beta = 0.25 in
  let r = Response.Always_on.compute ~latency_beta:beta geant geant_power ~pairs () in
  let bounds = Routing.Spf.delay_bound_table geant ~pairs ~beta in
  let violations = ref 0 in
  Hashtbl.iter
    (fun od p ->
      match Hashtbl.find_opt bounds od with
      | Some b when Path.latency geant p > b +. 1e-12 -> incr violations
      | _ -> ())
    r.Response.Always_on.paths;
  (* The repair uses k=8 candidate paths; allow a handful of stragglers. *)
  Alcotest.(check bool) (Printf.sprintf "%d violations" !violations) true (!violations <= 5)

let test_always_on_lat_uses_more_power () =
  let pairs = all_pairs geant in
  let plain = Response.Always_on.compute geant geant_power ~pairs () in
  let lat = Response.Always_on.compute ~latency_beta:0.25 geant geant_power ~pairs () in
  Alcotest.(check bool) "more elements with latency bound" true
    (State.active_links lat.Response.Always_on.state
    >= State.active_links plain.Response.Always_on.state)

(* -------------------- On-demand -------------------- *)

let test_on_demand_stress_avoids_hot_links () =
  let pairs = all_pairs geant in
  let ao = Response.Always_on.compute geant geant_power ~pairs () in
  let sf = Response.On_demand.stress_factors geant ao.Response.Always_on.paths in
  Alcotest.(check bool) "some stress" true (Array.exists (fun s -> s > 0.0) sf);
  let od = Response.On_demand.compute geant geant_power ~always_on:ao ~pairs (Response.On_demand.Stress 0.2) in
  (* On-demand paths exist and differ from always-on for a large share of
     pairs (that is the point of path diversity). *)
  let distinct = ref 0 and total = ref 0 in
  List.iter
    (fun od_pair ->
      match Hashtbl.find_opt od od_pair with
      | Some (p :: _) ->
          incr total;
          let ao_p = Hashtbl.find ao.Response.Always_on.paths od_pair in (* lint: allow hashtbl-find *)
          if not (Path.equal p ao_p) then incr distinct
      | _ -> ())
    pairs;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d distinct" !distinct !total)
    true
    (!total > 0 && float_of_int !distinct > 0.25 *. float_of_int !total)

let test_on_demand_ospf_matches_spf () =
  let pairs = all_pairs geant in
  let ao = Response.Always_on.compute geant geant_power ~pairs () in
  let od = Response.On_demand.compute geant geant_power ~always_on:ao ~pairs Response.On_demand.Ospf in
  let spf = Routing.Spf.routes geant ~pairs () in
  List.iter
    (fun od_pair ->
      match (Hashtbl.find_opt od od_pair, Hashtbl.find_opt spf od_pair) with
      | Some [ p ], Some q -> Alcotest.(check bool) "same as spf" true (Path.equal p q)
      | Some [], Some q ->
          (* Deduplicated: the OSPF path coincides with the always-on path. *)
          let ao_p = Hashtbl.find ao.Response.Always_on.paths od_pair in (* lint: allow hashtbl-find *)
          Alcotest.(check bool) "dedup only when equal" true (Path.equal q ao_p)
      | _ -> Alcotest.fail "missing entry")
    pairs

let test_on_demand_solver_pins_always_on () =
  let pairs = all_pairs geant in
  let ao = Response.Always_on.compute geant geant_power ~pairs () in
  let peak = Traffic.Gravity.make geant ~total:(Eutil.Units.bps 40e9) () in
  let od =
    Response.On_demand.compute geant geant_power ~always_on:ao ~pairs
      (Response.On_demand.Solver peak)
  in
  (* At least some pairs receive a distinct on-demand path. *)
  let some = List.exists (fun p -> match Hashtbl.find_opt od p with Some (_ :: _) -> true | _ -> false) pairs in
  Alcotest.(check bool) "solver produced paths" true some

let test_on_demand_rounds_produce_distinct_tables () =
  let pairs = all_pairs geant in
  let ao = Response.Always_on.compute geant geant_power ~pairs () in
  let od =
    Response.On_demand.compute ~rounds:2 geant geant_power ~always_on:ao ~pairs
      (Response.On_demand.Stress 0.2)
  in
  let with_two =
    List.length (List.filter (fun p -> match Hashtbl.find_opt od p with Some l -> List.length l >= 2 | None -> false) pairs)
  in
  Alcotest.(check bool) (Printf.sprintf "%d pairs with 2 tables" with_two) true (with_two > 0);
  (* Lists never contain duplicates. *)
  List.iter
    (fun p ->
      match Hashtbl.find_opt od p with
      | Some l ->
          Alcotest.(check int) "no dup" (List.length l)
            (List.length (List.sort_uniq Fixtures.path_compare l))
      | None -> ())
    pairs

(* -------------------- Failover -------------------- *)

let test_failover_disjoint_when_possible () =
  let g = Fixtures.square_with_diagonal () in
  let ao = sp g 0 2 in
  let protect = Hashtbl.create 1 in
  Hashtbl.replace protect (0, 2) [ ao ];
  let fo = Response.Failover.compute g ~protect ~pairs:[ (0, 2) ] in
  let f = Hashtbl.find fo (0, 2) in (* lint: allow hashtbl-find *)
  Alcotest.(check bool) "disjoint" false (Path.shares_link g f ao)

let test_vulnerable_pairs () =
  (* On a line, always-on and failover coincide: every pair is vulnerable. *)
  let g = Fixtures.line 3 in
  let e =
    { Response.Tables.origin = 0; dest = 2; always_on = sp g 0 2; on_demand = []; failover = None }
  in
  let t = Response.Tables.make g [ e ] in
  Alcotest.(check (list (pair int int))) "vulnerable" [ (0, 2) ]
    (Response.Failover.vulnerable_pairs g t);
  (* With a disjoint failover in the square, no pair is vulnerable. *)
  let g2 = Fixtures.square_with_diagonal () in
  let ao = sp g2 0 2 in
  let fo = Option.get (Routing.Disjoint.max_disjoint g2 ~protect:[ ao ] ~src:0 ~dst:2 ()) in
  let t2 =
    Response.Tables.make g2
      [ { Response.Tables.origin = 0; dest = 2; always_on = ao; on_demand = []; failover = Some fo } ]
  in
  Alcotest.(check (list (pair int int))) "protected" [] (Response.Failover.vulnerable_pairs g2 t2)

(* -------------------- Framework -------------------- *)

let geant_tables =
  lazy
    (Response.Framework.precompute geant geant_power ~pairs:(all_pairs geant))

let test_precompute_structure () =
  let t = Lazy.force geant_tables in
  Alcotest.(check int) "all pairs present" (List.length (all_pairs geant))
    (List.length (Response.Tables.pairs t));
  let n = Response.Tables.n_tables t in
  Alcotest.(check bool) (Printf.sprintf "N = %d <= 3" n) true (n <= 3);
  Alcotest.(check bool) "N >= 2" true (n >= 2)

let tables_equal a b =
  let pa = Response.Tables.pairs a and pb = Response.Tables.pairs b in
  pa = pb
  && List.for_all
       (fun (o, d) ->
         match (Response.Tables.find a o d, Response.Tables.find b o d) with
         | Some ea, Some eb ->
             let la = Array.to_list (Response.Tables.paths ea) in
             let lb = Array.to_list (Response.Tables.paths eb) in
             List.length la = List.length lb && List.for_all2 Path.equal la lb
         | None, None -> true
         | _ -> false)
       pa

let test_precompute_cached_hits () =
  Response.Framework.cache_clear ();
  let g = Fixtures.square_with_diagonal () in
  let power = Power.Model.cisco12000 g in
  let pairs = all_pairs g in
  (* A miss runs [precompute], which counts itself; a hit does not. *)
  Obs.set_enabled true;
  let t1, t2, built =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let before = Fixtures.precomputes () in
        let t1 = Response.Framework.precompute_cached g power ~pairs in
        let t2 = Response.Framework.precompute_cached g power ~pairs in
        (t1, t2, Fixtures.precomputes () -. before))
  in
  Alcotest.(check bool) "second call returns the cached tables" true (t1 == t2);
  Alcotest.(check (float 0.0)) "one miss, one hit" 1.0 built;
  (* A structurally identical but physically distinct graph (and power
     model) digests to the same key, so it hits too. *)
  let g' = Fixtures.square_with_diagonal () in
  let t3 = Response.Framework.precompute_cached g' (Power.Model.cisco12000 g') ~pairs in
  Alcotest.(check bool) "signature match hits across graph copies" true (t1 == t3);
  (* A different config misses. *)
  let config = { Response.Framework.default with n_paths = 4 } in
  let t4 = Response.Framework.precompute_cached ~config g power ~pairs in
  Alcotest.(check bool) "config change misses" true (t1 != t4)

let prop_precompute_cached_equals_uncached =
  QCheck.Test.make ~name:"precompute_cached equals precompute" ~count:8
    QCheck.(pair (int_range 2 4) (int_range 0 2))
    (fun (n_paths, drop) ->
      let g = Fixtures.square_with_diagonal () in
      let power = Power.Model.cisco12000 g in
      let pairs = List.filteri (fun i _ -> i >= drop) (all_pairs g) in
      let config = { Response.Framework.default with n_paths } in
      let cached = Response.Framework.precompute_cached ~config g power ~pairs in
      let plain = Response.Framework.precompute ~config g power ~pairs in
      tables_equal cached plain)

(* The failover stage fans out over [jobs] domains; the tables must not
   depend on the fan-out. Compared path by path: [Tables.pp] prints only a
   pair count and the deepest path level. *)
let test_precompute_jobs_identical () =
  let pairs = Traffic.Gravity.random_node_pairs geant ~seed:7 ~fraction:0.7 in
  let at jobs = Response.Framework.precompute ~jobs geant geant_power ~pairs in
  Alcotest.(check bool) "jobs 4 builds the tables of jobs 1" true (tables_equal (at 1) (at 4))

let test_evaluate_energy_proportionality () =
  let t = Lazy.force geant_tables in
  let power_at total =
    (Response.Framework.evaluate t geant_power
       (Traffic.Gravity.make geant ~total:(Eutil.Units.bps total) ()))
      .Response.Framework.power_percent
  in
  let low = power_at 2e9 and mid = power_at 20e9 and high = power_at 60e9 in
  Alcotest.(check bool) (Printf.sprintf "monotone %.0f <= %.0f <= %.0f" low mid high) true
    (low <= mid +. 1e-6 && mid <= high +. 1e-6);
  (* With all 23 PoPs originating traffic every chassis stays powered, so
     the floor is set by link power only (~20 % of the GEANT total here);
     larger savings need unused PoPs (see the Figure 5 bench, which uses
     random origin-destination subsets as the paper does). *)
  Alcotest.(check bool) (Printf.sprintf "savings at low load (%.0f%%)" low) true (low < 85.0)

let test_evaluate_activates_levels () =
  let t = Lazy.force geant_tables in
  let low = Response.Framework.evaluate t geant_power (Traffic.Gravity.make geant ~total:(Eutil.Units.bps 2e9) ()) in
  Alcotest.(check int) "always-on only at low load" 0 low.Response.Framework.levels_activated;
  let high = Response.Framework.evaluate t geant_power (Traffic.Gravity.make geant ~total:(Eutil.Units.bps 80e9) ()) in
  Alcotest.(check bool) "on-demand at high load" true
    (high.Response.Framework.levels_activated >= 1)

let test_carried_fraction_always_on_about_half () =
  (* Section 4.1: always-on paths alone accommodate about 50 % of the volume
     the OSPF paths can carry. Accept a wide band: the claim is qualitative. *)
  let t = Lazy.force geant_tables in
  let base = Traffic.Gravity.make geant ~total:(Eutil.Units.bps 1e9) () in
  let ao_only = Response.Framework.carried_fraction t geant_power ~base ~max_level:0 in
  let all = Response.Framework.carried_fraction t geant_power ~base ~max_level:10 in
  Alcotest.(check bool) "all levels carry more" true (all > ao_only);
  let ratio = ao_only /. all in
  Alcotest.(check bool) (Printf.sprintf "always-on ratio %.2f in [0.2, 0.9]" ratio) true
    (ratio > 0.2 && ratio < 0.9)

(* -------------------- REsPoNseTE -------------------- *)

let fig3_tables () =
  (* Fig. 3/7 set-up without B: A and C send to K; E-H-K is always-on, the
     D-G / F-J paths are on-demand (= failover here). *)
  let ex = Topo.Example.make ~include_b:false () in
  let g = ex.Topo.Example.graph in
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let via_middle o =
    (* o - E - H - K *)
    let e = ex.Topo.Example.e and h = ex.Topo.Example.h in
    Path.of_arcs g
      [
        Option.get (G.find_arc g o e);
        Option.get (G.find_arc g e h);
        Option.get (G.find_arc g h k);
      ]
  in
  let upper =
    let d = ex.Topo.Example.d and gg = ex.Topo.Example.g in
    Path.of_arcs g
      [
        Option.get (G.find_arc g a d);
        Option.get (G.find_arc g d gg);
        Option.get (G.find_arc g gg k);
      ]
  in
  let lower =
    let f = ex.Topo.Example.f and j = ex.Topo.Example.j in
    Path.of_arcs g
      [
        Option.get (G.find_arc g c f);
        Option.get (G.find_arc g f j);
        Option.get (G.find_arc g j k);
      ]
  in
  let entries =
    [
      { Response.Tables.origin = a; dest = k; always_on = via_middle a; on_demand = [ upper ]; failover = None };
      { Response.Tables.origin = c; dest = k; always_on = via_middle c; on_demand = [ lower ]; failover = None };
    ]
  in
  (ex, Response.Tables.make g entries)

(* One probe of pair [o -> d] over per-link arrays filled from [util] and
   [failed], the form the simulator runs. *)
let te_probe te g o d ~now ~util ~failed =
  let n = G.link_count g in
  Response.Te.probe te (Response.Te.pair te o d) ~now ~util:(Array.init n util)
    ~known_failed:(Array.init n failed)

let test_te_initial_split_on_always_on () =
  let _, tables = fig3_tables () in
  let te = Response.Te.create tables Response.Te.default_config in
  List.iter
    (fun (o, d) ->
      let s = Response.Te.split te o d in
      Alcotest.(check (float 1e-9)) "all on always-on" 1.0 s.(0))
    (Response.Tables.pairs tables)

let test_te_overload_activates_on_demand () =
  let ex, tables = fig3_tables () in
  let te = Response.Te.create tables Response.Te.default_config in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  (* Report the always-on path fully utilised and the on-demand path idle. *)
  let ao_links =
    Path.links ex.Topo.Example.graph (Response.Tables.find tables a k |> Option.get).Response.Tables.always_on
  in
  let hot l = Array.exists (fun x -> x = l) ao_links in
  let actions =
    te_probe te ex.Topo.Example.graph a k ~now:1.0
      ~util:(fun l -> if hot l then 0.97 else 0.0)
      ~failed:(fun _ -> false)
  in
  Alcotest.(check bool) "acted" true (actions <> []);
  let s = Response.Te.split te a k in
  Alcotest.(check bool) "shifted to on-demand" true (s.(1) > 0.0)

let test_te_failure_moves_everything () =
  let ex, tables = fig3_tables () in
  let te = Response.Te.create tables Response.Te.default_config in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  let g = ex.Topo.Example.graph in
  let eh = (G.arc g (Option.get (G.find_arc g ex.Topo.Example.e ex.Topo.Example.h))).G.link in
  let actions =
    te_probe te g a k ~now:1.0 ~util:(fun _ -> 0.1) ~failed:(fun l -> l = eh)
  in
  Alcotest.(check bool) "acted on failure" true (actions <> []);
  let s = Response.Te.split te a k in
  Alcotest.(check (float 1e-9)) "nothing on failed path" 0.0 s.(0);
  Alcotest.(check (float 1e-9)) "all on surviving path" 1.0 s.(1)

let test_te_consolidates_after_hysteresis () =
  let ex, tables = fig3_tables () in
  let cfg = { Response.Te.default_config with hysteresis = Eutil.Units.seconds 1.0 } in
  let te = Response.Te.create tables cfg in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  (* Force traffic to the on-demand path via a failure, then heal it. *)
  let g = ex.Topo.Example.graph in
  let eh = (G.arc g (Option.get (G.find_arc g ex.Topo.Example.e ex.Topo.Example.h))).G.link in
  ignore (te_probe te g a k ~now:0.0 ~util:(fun _ -> 0.1) ~failed:(fun l -> l = eh));
  (* Low utilisation, link healed: first probe starts the low streak... *)
  let probe now = te_probe te g a k ~now ~util:(fun _ -> 0.05) ~failed:(fun _ -> false) in
  ignore (probe 1.0);
  Alcotest.(check bool) "not yet consolidated" true ((Response.Te.split te a k).(1) > 0.9);
  (* ...after the hysteresis expires, traffic steps back down. *)
  ignore (probe 2.1);
  ignore (probe 3.3);
  ignore (probe 4.5);
  let s = Response.Te.split te a k in
  Alcotest.(check bool) (Printf.sprintf "consolidated (%.2f on always-on)" s.(0)) true (s.(0) > 0.9)

let test_te_stable_under_constant_load () =
  (* A load between the two thresholds must produce no actions at all —
     the stability property. *)
  let ex, tables = fig3_tables () in
  let te = Response.Te.create tables Response.Te.default_config in
  let a = ex.Topo.Example.a and k = ex.Topo.Example.k in
  for i = 1 to 20 do
    let actions =
      te_probe te ex.Topo.Example.graph a k ~now:(float_of_int i)
        ~util:(fun _ -> 0.6)
        ~failed:(fun _ -> false)
    in
    Alcotest.(check bool) "no oscillation" true (actions = [])
  done


let test_always_on_epsilon_is_near_tree () =
  (* The literal epsilon variant minimises power with no capacity pressure:
     the active set is close to a spanning tree. *)
  let pairs = all_pairs geant in
  let r =
    Response.Always_on.compute ~mode:Response.Always_on.Epsilon geant geant_power ~pairs ()
  in
  let links = State.active_links r.Response.Always_on.state in
  Alcotest.(check bool) (Printf.sprintf "near-tree (%d links)" links) true (links <= 26)

let test_always_on_oblivious_has_more_capacity_than_epsilon () =
  let pairs = all_pairs geant in
  let tables_of mode =
    let config = { Response.Framework.default with always_on_mode = mode } in
    Response.Framework.precompute ~config geant geant_power ~pairs
  in
  let base = Traffic.Gravity.make geant ~pairs ~total:(Eutil.Units.bps 1e9) () in
  let carried mode =
    Response.Framework.carried_fraction (tables_of mode) geant_power ~base ~max_level:0
  in
  Alcotest.(check bool) "gravity prior carries more" true
    (carried Response.Always_on.Oblivious > carried Response.Always_on.Epsilon)

let test_on_demand_solver_fallback_diversity () =
  (* On the dual-homed PoP-access topology the peak solve reuses pinned
     always-on links; the stress fallback must still give most pairs a
     distinct on-demand path. *)
  let g = Topo.Pop_access.make () in
  let power = Power.Model.cisco12000 g in
  let metros = G.nodes_with_role g G.Metro in
  let pairs =
    List.concat_map
      (fun o -> List.filter_map (fun d -> if o <> d then Some (o, d) else None) metros)
      metros
    |> List.filteri (fun i _ -> i mod 3 = 0)
  in
  let ao = Response.Always_on.compute g power ~pairs () in
  let peak = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps 8e9) () in
  let od =
    Response.On_demand.compute g power ~always_on:ao ~pairs (Response.On_demand.Solver peak)
  in
  let with_alternative =
    List.length
      (List.filter
         (fun p -> match Hashtbl.find_opt od p with Some (_ :: _) -> true | _ -> false)
         pairs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d pairs have an on-demand path" with_alternative (List.length pairs))
    true
    (float_of_int with_alternative >= 0.7 *. float_of_int (List.length pairs))

let test_framework_loads_consistent () =
  let t = Lazy.force geant_tables in
  let tm = Traffic.Gravity.make geant ~total:(Eutil.Units.bps 10e9) () in
  let loads = Response.Framework.loads t tm in
  Alcotest.(check int) "one load per arc" (G.arc_count geant) (Array.length loads);
  let carried = Array.fold_left ( +. ) 0.0 loads in
  (* Every flow is placed on some path of >= 1 hop, so the summed arc load is
     at least the demand total. *)
  Alcotest.(check bool) "loads cover demand" true (carried >= Matrix.total tm -. 1.0)

let test_te_force_split () =
  let _, tables = Fixtures.fig3_tables () in
  let te = Response.Te.create tables Response.Te.default_config in
  match Response.Tables.pairs tables with
  | (o, d) :: _ ->
      Response.Te.force_split te o d [| 1.0; 3.0 |];
      let s = Response.Te.split te o d in
      Alcotest.(check (float 1e-9)) "normalised low" 0.25 s.(0);
      Alcotest.(check (float 1e-9)) "normalised high" 0.75 s.(1);
      Alcotest.check_raises "arity" (Invalid_argument "Te.force_split: wrong arity") (fun () ->
          Response.Te.force_split te o d [| 1.0 |])
  | [] -> Alcotest.fail "no pairs"

let test_te_overload_picks_coolest () =
  (* Three paths: always-on hot, first on-demand warm, failover cold: the
     shift must go to the coldest eligible path. *)
  let g = Fixtures.square_with_diagonal () in
  let p0 = sp g 0 2 in
  let p1 = Option.get (Routing.Disjoint.max_disjoint g ~protect:[ p0 ] ~src:0 ~dst:2 ()) in
  let p2 =
    Option.get (Routing.Disjoint.max_disjoint g ~protect:[ p0; p1 ] ~src:0 ~dst:2 ())
  in
  let t =
    Response.Tables.make g
      [ { Response.Tables.origin = 0; dest = 2; always_on = p0; on_demand = [ p1 ]; failover = Some p2 } ]
  in
  let te = Response.Te.create t Response.Te.default_config in
  let l0 = Array.to_list (Path.links g p0) in
  let l1 = Array.to_list (Path.links g p1) in
  let util l =
    if List.mem l l0 then 0.95 else if List.mem l l1 then 0.5 else 0.05
  in
  ignore (te_probe te g 0 2 ~now:1.0 ~util ~failed:(fun _ -> false));
  let s = Response.Te.split te 0 2 in
  Alcotest.(check bool) "went to the coldest" true (s.(2) > 0.0 && s.(1) = 0.0)

(* -------------------- Critical paths & replay -------------------- *)

let test_critical_paths_coverage () =
  let g = Fixtures.square_with_diagonal () in
  let cp = Response.Critical_paths.create g in
  let direct = sp g 0 2 in
  let detour = Option.get (Routing.Disjoint.max_disjoint g ~protect:[ direct ] ~src:0 ~dst:2 ()) in
  let route p =
    let h = Hashtbl.create 1 in
    Hashtbl.replace h (0, 2) p;
    h
  in
  let tm v = Matrix.of_flows 4 [ (0, 2, v) ] in
  (* 90 units on the direct path, 10 on the detour. *)
  Response.Critical_paths.observe cp (route direct) (tm 90.0);
  Response.Critical_paths.observe cp (route detour) (tm 10.0);
  Alcotest.(check (float 1e-9)) "top-1 covers 90%" 90.0 (Response.Critical_paths.coverage cp ~top:1);
  Alcotest.(check (float 1e-9)) "top-2 covers all" 100.0 (Response.Critical_paths.coverage cp ~top:2);
  Alcotest.(check int) "distinct" 2 (List.length (Response.Critical_paths.paths_of cp 0 2));
  match Response.Critical_paths.paths_of cp 0 2 with
  | (p, v) :: _ ->
      Alcotest.(check bool) "heaviest first" true (Path.equal p direct);
      Alcotest.(check (float 1e-9)) "volume" 90.0 v
  | [] -> Alcotest.fail "empty ranking"

let test_replay_geant_day () =
  (* One synthetic day at 1-hour granularity: fast but representative. *)
  let day = Traffic.Synth.geant_like geant ~days:1 () in
  let trace =
    Traffic.Trace.make ~start:day.Traffic.Trace.start ~interval:(4.0 *. day.Traffic.Trace.interval)
      (Array.init ((Traffic.Trace.length day + 3) / 4) (fun i -> Traffic.Trace.at day (4 * i)))
  in
  let r = Response.Replay.run geant geant_power trace in
  Alcotest.(check int) "all intervals" (Traffic.Trace.length trace)
    (Array.length r.Response.Replay.intervals);
  (* Savings happen. *)
  Alcotest.(check bool) "mean power below full" true (Response.Replay.mean_power_percent r < 95.0);
  (* Dominance fractions sum to 1. *)
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Response.Replay.config_dominance r) in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 total;
  (* Recomputation rate buckets cover the replay. *)
  let rates = Response.Replay.recomputation_rate r ~bucket:3600.0 in
  Alcotest.(check int) "one bucket per hour" 24 (List.length rates);
  (* Coverage curve is monotone and reaches 100 with enough paths. *)
  let curve = Response.Critical_paths.coverage_curve r.Response.Replay.ranking ~max:6 in
  let values = List.map snd curve in
  Alcotest.(check bool) "monotone" true (List.sort Float.compare values = values);
  Alcotest.(check bool) "high coverage with few paths" true (List.nth values 2 > 80.0) (* lint: allow list-nth *)

let () =
  Alcotest.run "response"
    [
      ( "tables",
        [
          Alcotest.test_case "basics" `Quick test_tables_basics;
          Alcotest.test_case "reject bad path" `Quick test_tables_reject_bad_path;
          Alcotest.test_case "states" `Quick test_tables_states;
        ] );
      ( "always-on",
        [
          Alcotest.test_case "oblivious connectivity" `Quick test_always_on_oblivious_connects_everything;
          Alcotest.test_case "latency bound" `Quick test_always_on_latency_bound;
          Alcotest.test_case "lat uses more power" `Quick test_always_on_lat_uses_more_power;
          Alcotest.test_case "epsilon near-tree" `Quick test_always_on_epsilon_is_near_tree;
          Alcotest.test_case "oblivious capacity" `Quick test_always_on_oblivious_has_more_capacity_than_epsilon;
        ] );
      ( "on-demand",
        [
          Alcotest.test_case "stress avoids hot links" `Quick test_on_demand_stress_avoids_hot_links;
          Alcotest.test_case "ospf variant" `Quick test_on_demand_ospf_matches_spf;
          Alcotest.test_case "solver variant" `Slow test_on_demand_solver_pins_always_on;
          Alcotest.test_case "multiple rounds" `Quick test_on_demand_rounds_produce_distinct_tables;
          Alcotest.test_case "solver fallback diversity" `Quick test_on_demand_solver_fallback_diversity;
        ] );
      ( "failover",
        [
          Alcotest.test_case "disjoint" `Quick test_failover_disjoint_when_possible;
          Alcotest.test_case "vulnerable pairs" `Quick test_vulnerable_pairs;
        ] );
      ( "framework",
        [
          Alcotest.test_case "precompute structure" `Quick test_precompute_structure;
          Alcotest.test_case "precompute_cached hits" `Quick test_precompute_cached_hits;
          QCheck_alcotest.to_alcotest prop_precompute_cached_equals_uncached;
          Alcotest.test_case "precompute jobs-identical" `Quick test_precompute_jobs_identical;
          Alcotest.test_case "energy proportionality" `Quick test_evaluate_energy_proportionality;
          Alcotest.test_case "activates levels" `Quick test_evaluate_activates_levels;
          Alcotest.test_case "always-on carries ~half" `Quick test_carried_fraction_always_on_about_half;
          Alcotest.test_case "loads consistent" `Quick test_framework_loads_consistent;
        ] );
      ( "te",
        [
          Alcotest.test_case "initial split" `Quick test_te_initial_split_on_always_on;
          Alcotest.test_case "overload activates" `Quick test_te_overload_activates_on_demand;
          Alcotest.test_case "failure moves all" `Quick test_te_failure_moves_everything;
          Alcotest.test_case "consolidation" `Quick test_te_consolidates_after_hysteresis;
          Alcotest.test_case "stability" `Quick test_te_stable_under_constant_load;
          Alcotest.test_case "force split" `Quick test_te_force_split;
          Alcotest.test_case "overload picks coolest" `Quick test_te_overload_picks_coolest;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "coverage" `Quick test_critical_paths_coverage;
          Alcotest.test_case "replay one day" `Slow test_replay_geant_day;
        ] );
    ]
