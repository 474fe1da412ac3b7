(* Tests for the topology substrate: graph construction, activity state,
   paths, and the generated topologies used in the evaluation. *)

module G = Topo.Graph
module State = Topo.State
module Path = Topo.Path

let test_builder_basic () =
  let g = Fixtures.triangle () in
  Alcotest.(check int) "nodes" 3 (G.node_count g);
  Alcotest.(check int) "links" 3 (G.link_count g);
  Alcotest.(check int) "arcs" 6 (G.arc_count g);
  Alcotest.(check int) "degree" 2 (G.degree g 0);
  Alcotest.(check string) "name" "n1" (G.name g 1);
  Alcotest.(check int) "by name" 1 (G.node_of_name g "n1")

let test_arc_pairing () =
  let g = Fixtures.triangle () in
  for a = 0 to G.arc_count g - 1 do
    let arc = G.arc g a in
    let rev = G.arc g arc.G.rev in
    Alcotest.(check int) "rev of rev" a rev.G.rev;
    Alcotest.(check int) "same link" arc.G.link rev.G.link;
    Alcotest.(check int) "opposite src" arc.G.src rev.G.dst
  done

let test_find_arc () =
  let g = Fixtures.triangle () in
  (match G.find_arc g 0 1 with
  | Some a ->
      let arc = G.arc g a in
      Alcotest.(check int) "src" 0 arc.G.src;
      Alcotest.(check int) "dst" 1 arc.G.dst
  | None -> Alcotest.fail "missing arc");
  (* There is no self arc. *)
  Alcotest.(check bool) "no self" true (G.find_arc g 0 0 = None)

let test_builder_rejects_duplicates () =
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 x y);
  Alcotest.check_raises "duplicate link" (Invalid_argument "Builder.add_link: duplicate link")
    (fun () -> ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 y x));
  Alcotest.check_raises "self loop" (Invalid_argument "Builder.add_link: self loop") (fun () ->
      ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 x x));
  Alcotest.check_raises "duplicate name" (Invalid_argument "Builder.add_node: duplicate x")
    (fun () -> ignore (G.Builder.add_node b "x"))

let test_builder_rejects_bad_values () =
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  let bad = [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ] in
  List.iter
    (fun v ->
      let name = Printf.sprintf "%h" v in
      Alcotest.check_raises ("latency " ^ name) (Invalid_argument "Builder.add_link: latency")
        (fun () -> ignore (G.Builder.add_link b ~capacity:1.0 ~latency:v x y));
      Alcotest.check_raises ("capacity " ^ name) (Invalid_argument "Builder.add_link: capacity")
        (fun () -> ignore (G.Builder.add_link b ~capacity:v ~latency:1.0 x y));
      Alcotest.check_raises ("capacity back " ^ name)
        (Invalid_argument "Builder.add_link: capacity") (fun () ->
          ignore (G.Builder.add_link b ~capacity:1.0 ~capacity_back:v ~latency:1.0 x y)))
    bad;
  (* A rejected link leaves nothing behind: the pair is still free. *)
  Alcotest.(check int) "link added" 0 (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 x y)

let test_asymmetric_capacity () =
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  ignore (G.Builder.add_link b ~capacity:10.0 ~capacity_back:4.0 ~latency:1.0 x y);
  let g = G.Builder.build b in
  let fwd = Option.get (G.find_arc g x y) in
  let bwd = Option.get (G.find_arc g y x) in
  Alcotest.(check (float 0.0)) "fwd" 10.0 (G.arc g fwd).G.capacity;
  Alcotest.(check (float 0.0)) "bwd" 4.0 (G.arc g bwd).G.capacity

let test_state_node_follows_links () =
  let g = Fixtures.triangle () in
  let st = State.all_on g in
  Alcotest.(check bool) "all nodes on" true (State.node_on st 0);
  (* Turn off the two links incident to node 0. *)
  let incident =
    List.filter
      (fun l ->
        let i, j = G.link_endpoints g l in
        i = 0 || j = 0)
      (List.init (G.link_count g) (fun l -> l))
  in
  List.iter (fun l -> State.set_link g st l false) incident;
  Alcotest.(check bool) "node off when isolated" false (State.node_on st 0);
  Alcotest.(check bool) "others stay on" true (State.node_on st 1);
  Alcotest.(check int) "one link left" 1 (State.active_links st)

let test_state_key_roundtrip () =
  let g = Fixtures.square_with_diagonal () in
  let a = State.all_on g in
  let b = State.copy a in
  Alcotest.(check bool) "equal copies" true (State.equal a b);
  Alcotest.(check string) "equal keys" (State.key a) (State.key b);
  State.set_link g b 0 false;
  Alcotest.(check bool) "differ after change" false (State.equal a b);
  Alcotest.(check bool) "keys differ" true (State.key a <> State.key b);
  State.set_link g b 0 true;
  Alcotest.(check bool) "equal again" true (State.equal a b)

let test_path_ops () =
  let g = Fixtures.line 4 in
  let a01 = Option.get (G.find_arc g 0 1) in
  let a12 = Option.get (G.find_arc g 1 2) in
  let a23 = Option.get (G.find_arc g 2 3) in
  let p = Path.of_arcs g [ a01; a12; a23 ] in
  Alcotest.(check int) "hops" 3 (Path.hops p);
  Alcotest.(check (array int)) "nodes" [| 0; 1; 2; 3 |] (Path.nodes g p);
  Alcotest.(check (float 1e-12)) "latency" 3e-3 (Path.latency g p);
  Alcotest.(check bool) "uses link" true (Path.uses_link g p (G.arc g a12).G.link)

let test_path_rejects_gap () =
  let g = Fixtures.line 4 in
  let a01 = Option.get (G.find_arc g 0 1) in
  let a23 = Option.get (G.find_arc g 2 3) in
  Alcotest.check_raises "gap" (Invalid_argument "Path.of_arcs: not contiguous") (fun () ->
      ignore (Path.of_arcs g [ a01; a23 ]))

let test_path_active () =
  let g = Fixtures.line 3 in
  let a01 = Option.get (G.find_arc g 0 1) in
  let a12 = Option.get (G.find_arc g 1 2) in
  let p = Path.of_arcs g [ a01; a12 ] in
  let st = State.all_on g in
  Alcotest.(check bool) "active" true (Path.active g st p);
  State.set_link g st (G.arc g a12).G.link false;
  Alcotest.(check bool) "inactive" false (Path.active g st p)

let connected g =
  (* BFS over links. *)
  let n = G.node_count g in
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add 0 q;
  seen.(0) <- true;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun aid ->
        let v = (G.arc g aid).G.dst in
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (G.out_arcs g u)
  done;
  Array.for_all (fun b -> b) seen

let test_fattree_counts () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  (* k=4: 4 cores, 8 agg, 8 edge, 16 hosts; links: 16 host + 16 edge-agg + 16 agg-core. *)
  Alcotest.(check int) "nodes" 36 (G.node_count g);
  Alcotest.(check int) "links" 48 (G.link_count g);
  Alcotest.(check int) "hosts" 16 (Topo.Fattree.n_hosts ft);
  Alcotest.(check bool) "connected" true (connected g);
  (* Every core switch has degree k. *)
  Array.iter
    (fun c -> Alcotest.(check int) "core degree" 4 (G.degree g c))
    ft.Topo.Fattree.cores

let test_fattree_k12_core_count () =
  let ft = Topo.Fattree.make 12 in
  Alcotest.(check int) "36 core switches" 36 (Array.length ft.Topo.Fattree.cores)

let test_fattree_rejects_odd () =
  Alcotest.check_raises "odd k" (Invalid_argument "Fattree.make: k must be even and >= 2")
    (fun () -> ignore (Topo.Fattree.make 3))

let test_geant () =
  let g = Topo.Geant.make () in
  Alcotest.(check int) "23 pops" 23 (G.node_count g);
  Alcotest.(check int) "37 links" 37 (G.link_count g);
  Alcotest.(check bool) "connected" true (connected g);
  Alcotest.(check int) "traffic nodes" 23 (Array.length (G.traffic_nodes g))

let test_rocketfuel () =
  let ab = Topo.Rocketfuel.make Topo.Rocketfuel.abovenet in
  Alcotest.(check int) "abovenet pops" 22 (G.node_count ab);
  Alcotest.(check bool) "abovenet connected" true (connected ab);
  let ge = Topo.Rocketfuel.make Topo.Rocketfuel.genuity in
  Alcotest.(check int) "genuity pops" 42 (G.node_count ge);
  Alcotest.(check bool) "genuity connected" true (connected ge);
  (* Deterministic regeneration. *)
  let ab2 = Topo.Rocketfuel.make Topo.Rocketfuel.abovenet in
  Alcotest.(check int) "same links" (G.link_count ab) (G.link_count ab2);
  (* Capacity rule: only 100 Mb or 52 Mb links exist. *)
  G.iter_links ab ~f:(fun l ->
      let c = G.link_capacity ab l in
      Alcotest.(check bool) "capacity rule" true (c = 100e6 || c = 52e6))

(* A spec with fewer than two PoPs has no spanning tree to build: a typed
   error, not a crash inside the generator. Two PoPs make one link. *)
let test_rocketfuel_rejects_tiny () =
  List.iter
    (fun pops ->
      let spec = { Topo.Rocketfuel.abovenet with Topo.Rocketfuel.pops } in
      Alcotest.check_raises
        (Printf.sprintf "%d PoPs" pops)
        (Invalid_argument "Rocketfuel.make: abovenet needs at least 2 PoPs")
        (fun () -> ignore (Topo.Rocketfuel.make spec)))
    [ 1; 0; -3 ];
  let g =
    Topo.Rocketfuel.make
      { Topo.Rocketfuel.abovenet with Topo.Rocketfuel.pops = 2; extra_links = 3 }
  in
  Alcotest.(check int) "two PoPs" 2 (G.node_count g);
  Alcotest.(check int) "one link" 1 (G.link_count g);
  Alcotest.(check bool) "connected" true (connected g)

let test_pop_access () =
  let g = Topo.Pop_access.make () in
  Alcotest.(check int) "nodes" 28 (G.node_count g);
  Alcotest.(check bool) "connected" true (connected g);
  Alcotest.(check int) "cores" 4 (List.length (G.nodes_with_role g G.Core));
  Alcotest.(check int) "metros" 16 (List.length (G.nodes_with_role g G.Metro));
  (* Redundancy: every metro is dual-homed. *)
  List.iter
    (fun m -> Alcotest.(check int) "metro degree" 2 (G.degree g m))
    (G.nodes_with_role g G.Metro)

let test_example_fig3 () =
  let ex = Topo.Example.make () in
  Alcotest.(check int) "nodes" 10 (G.node_count ex.Topo.Example.graph);
  let ex' = Topo.Example.make ~include_b:false () in
  Alcotest.(check int) "without B" 9 (G.node_count ex'.Topo.Example.graph);
  Alcotest.(check bool) "connected" true (connected ex'.Topo.Example.graph)

(* Every generator lays link l out as arcs 2l and 2l + 1, so the arithmetic
   of [arcs_of_link] agrees with the endpoint lookup on every link. *)
let test_arcs_of_link_layout () =
  let graphs =
    [
      ("triangle", Fixtures.triangle ());
      ("square", Fixtures.square_with_diagonal ());
      ("line", Fixtures.line 5);
      ("figure 3", (Topo.Example.make ()).Topo.Example.graph);
      ("geant", Topo.Geant.make ());
      ("abovenet", Topo.Rocketfuel.make Topo.Rocketfuel.abovenet);
      ("genuity", Topo.Rocketfuel.make Topo.Rocketfuel.genuity);
      ("pop-access", Topo.Pop_access.make ());
      ("fat-tree k=4", (Topo.Fattree.make 4).Topo.Fattree.graph);
      ("fat-tree k=8", (Topo.Fattree.make 8).Topo.Fattree.graph);
      ("butterfly k=4", (Topo.Butterfly.make 4).Topo.Butterfly.graph);
    ]
  in
  List.iter
    (fun (name, g) ->
      G.iter_links g ~f:(fun l ->
          let i, j = G.link_endpoints g l in
          let fwd, bwd = G.arcs_of_link g l in
          let check what =
            Alcotest.(check (option int)) (Printf.sprintf "%s link %d %s" name l what)
          in
          check "forward" (G.find_arc g i j) (Some fwd);
          check "backward" (G.find_arc g j i) (Some bwd));
      Alcotest.check_raises (name ^ " out of range")
        (Invalid_argument
           (Printf.sprintf "Graph.arcs_of_link: link %d out of range" (G.link_count g)))
        (fun () -> ignore (G.arcs_of_link g (G.link_count g))))
    graphs

(* Property: random graphs produced by the builder keep the arc/link
   invariants. *)
let prop_builder_invariants =
  QCheck.Test.make ~name:"builder invariants on random graphs" ~count:100
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Eutil.Prng.create seed in
      let b = G.Builder.create () in
      let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
      (* Random spanning tree plus random extra links. *)
      for i = 1 to n - 1 do
        let j = Eutil.Prng.int rng i in
        ignore
          (G.Builder.add_link b ~capacity:(1.0 +. Eutil.Prng.float rng) ~latency:1e-3 nodes.(i)
             nodes.(j))
      done;
      let g = G.Builder.build b in
      G.arc_count g = 2 * G.link_count g
      && G.link_count g = n - 1
      && G.fold_arcs g ~init:true ~f:(fun acc a ->
             acc && (G.arc g a.G.rev).G.rev = a.G.id && a.G.src <> a.G.dst))

let () =
  Alcotest.run "topo"
    [
      ( "graph",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basic;
          Alcotest.test_case "arc pairing" `Quick test_arc_pairing;
          Alcotest.test_case "find arc" `Quick test_find_arc;
          Alcotest.test_case "builder rejects bad input" `Quick test_builder_rejects_duplicates;
          Alcotest.test_case "builder rejects bad values" `Quick test_builder_rejects_bad_values;
          Alcotest.test_case "asymmetric capacity" `Quick test_asymmetric_capacity;
          QCheck_alcotest.to_alcotest prop_builder_invariants;
        ] );
      ( "state",
        [
          Alcotest.test_case "node follows links" `Quick test_state_node_follows_links;
          Alcotest.test_case "key roundtrip" `Quick test_state_key_roundtrip;
        ] );
      ( "path",
        [
          Alcotest.test_case "operations" `Quick test_path_ops;
          Alcotest.test_case "rejects gaps" `Quick test_path_rejects_gap;
          Alcotest.test_case "activity" `Quick test_path_active;
        ] );
      ( "generators",
        [
          Alcotest.test_case "fat-tree k=4" `Quick test_fattree_counts;
          Alcotest.test_case "fat-tree k=12 cores" `Quick test_fattree_k12_core_count;
          Alcotest.test_case "fat-tree odd k" `Quick test_fattree_rejects_odd;
          Alcotest.test_case "geant" `Quick test_geant;
          Alcotest.test_case "rocketfuel" `Quick test_rocketfuel;
          Alcotest.test_case "pop-access" `Quick test_pop_access;
          Alcotest.test_case "figure 3 example" `Quick test_example_fig3;
          Alcotest.test_case "arcs of link layout" `Quick test_arcs_of_link_layout;
          Alcotest.test_case "rocketfuel rejects tiny maps" `Quick test_rocketfuel_rejects_tiny;
        ] );
    ]
