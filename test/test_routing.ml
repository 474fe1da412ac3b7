(* Tests for the routing substrate: Dijkstra, InvCap SPF, Yen's k-shortest
   paths and disjoint failover paths. *)

module G = Topo.Graph
module Path = Topo.Path

let arc_between g i j = Option.get (G.find_arc g i j)

let test_dijkstra_line () =
  let g = Fixtures.line 5 in
  let res = Routing.Dijkstra.run g ~src:0 () in
  Alcotest.(check (float 1e-12)) "distance" 4e-3 res.Routing.Dijkstra.dist.(4);
  match Routing.Dijkstra.path_to g res 4 with
  | Some p -> Alcotest.(check int) "hops" 4 (Path.hops p)
  | None -> Alcotest.fail "unreachable"

let test_dijkstra_prefers_light_arcs () =
  (* Square with diagonal: 0-2 direct vs 0-1-2; with unit latencies the
     diagonal wins; with a heavy diagonal the two-hop path wins. *)
  let g = Fixtures.square_with_diagonal () in
  let diag = (G.arc g (arc_between g 0 2)).G.link in
  let p = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:2 ()) in
  Alcotest.(check int) "direct" 1 (Path.hops p);
  let weight a = if a.G.link = diag then 10.0 else 1.0 in
  let p' = Option.get (Routing.Dijkstra.shortest_path g ~weight ~src:0 ~dst:2 ()) in
  Alcotest.(check int) "two hops" 2 (Path.hops p')

let test_dijkstra_respects_active () =
  let g = Fixtures.square_with_diagonal () in
  let diag = (G.arc g (arc_between g 0 2)).G.link in
  let active a = a.G.link <> diag in
  let p = Option.get (Routing.Dijkstra.shortest_path g ~active ~src:0 ~dst:2 ()) in
  Alcotest.(check bool) "avoids diagonal" false (Path.uses_link g p diag)

let test_dijkstra_unreachable () =
  (* Two disconnected components. *)
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  let z = G.Builder.add_node b "z" in
  ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 x y);
  let g = G.Builder.build b in
  Alcotest.(check bool) "unreachable" true (Routing.Dijkstra.shortest_path g ~src:x ~dst:z () = None)

let test_dijkstra_zero_weight_no_cycle () =
  (* Link 0 (c-b) weighs 0 and link 1 (a-b) weighs 1. Once c is settled,
     its zero-weight arc back to b ties b's distance with a smaller arc id;
     re-parenting the already settled b there would close a b-c cycle in
     [prev_arc], and [path_to c] would never return. *)
  let b = G.Builder.create () in
  let na = G.Builder.add_node b "a" in
  let nb = G.Builder.add_node b "b" in
  let nc = G.Builder.add_node b "c" in
  ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 nc nb);
  ignore (G.Builder.add_link b ~capacity:1.0 ~latency:1.0 na nb);
  let g = G.Builder.build b in
  let weight arc = if arc.G.link = 0 then 0.0 else 1.0 in
  let res = Routing.Dijkstra.run g ~weight ~src:na () in
  Alcotest.(check int) "b keeps its parent" (arc_between g na nb) res.Routing.Dijkstra.prev_arc.(nb);
  let nodes = Option.map (fun p -> Array.to_list (Path.nodes g p)) in
  Alcotest.(check (option (list int))) "run" (Some [ na; nb; nc ])
    (nodes (Routing.Dijkstra.path_to g res nc));
  Alcotest.(check (option (list int))) "shortest_path" (Some [ na; nb; nc ])
    (nodes (Routing.Dijkstra.shortest_path g ~weight ~src:na ~dst:nc ()))

(* A random graph on [n] nodes, often disconnected: each node links to an
   earlier one with probability 0.8, plus up to [n] extra random links. *)
let random_graph rng n =
  let b = G.Builder.create () in
  let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
  let link i j =
    if i <> j then
      try ignore (G.Builder.add_link b ~capacity:1e9 ~latency:1e-3 nodes.(i) nodes.(j))
      with Invalid_argument _ -> ()
  in
  for i = 1 to n - 1 do
    if Eutil.Prng.float rng < 0.8 then link i (Eutil.Prng.int rng i)
  done;
  for _ = 1 to n do
    link (Eutil.Prng.int rng n) (Eutil.Prng.int rng n)
  done;
  G.Builder.build b

(* [shortest_path] gives the path the frozen full-tree Dijkstra reads for
   [dst]. *)
let same_path g ~weight ~active ~src ~dst =
  let want = Greedy_reference.Dijkstra.(path_to g (run g ~weight ~active ~src ()) dst) in
  Option.equal Path.equal want (Routing.Dijkstra.shortest_path g ~weight ~active ~src ~dst ())

(* [run] gives the frozen Dijkstra's tree: distances to the bit, and
   parents. *)
let same_tree g ~weight ~active ~src =
  let want = Greedy_reference.Dijkstra.run g ~weight ~active ~src () in
  let got = Routing.Dijkstra.run g ~weight ~active ~src () in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    want.Greedy_reference.Dijkstra.dist got.Routing.Dijkstra.dist
  && Array.for_all2 Int.equal want.Greedy_reference.Dijkstra.prev_arc got.Routing.Dijkstra.prev_arc

(* The target-stopped [shortest_path] returns exactly the path the frozen
   full-tree Dijkstra reads for [dst]. Weights in 1..3 force equal-weight
   ties (the smaller-arc-id rule decides them); random activity masks, src
   = dst and unreachable pairs are all drawn. *)
let prop_shortest_path_vs_reference =
  QCheck.Test.make ~name:"shortest_path equals full-tree reference" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 2 + Eutil.Prng.int rng 29 in
      let g = random_graph rng n in
      let w = Array.init (G.arc_count g) (fun _ -> float_of_int (1 + Eutil.Prng.int rng 3)) in
      let on = Array.init (G.arc_count g) (fun _ -> Eutil.Prng.float rng < 0.85) in
      let weight arc = w.(arc.G.id) and active arc = on.(arc.G.id) in
      List.for_all
        (fun k ->
          let src = Eutil.Prng.int rng n in
          let dst = if k = 0 then src else Eutil.Prng.int rng n in
          same_path g ~weight ~active ~src ~dst)
        (List.init 6 Fun.id))

(* [run] keeps its full-tree contract: distances (to the bit) and parents
   equal the frozen reference under positive weights, integer or not. *)
let prop_run_vs_reference =
  QCheck.Test.make ~name:"run equals full-tree reference" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 2 + Eutil.Prng.int rng 29 in
      let g = random_graph rng n in
      let w =
        Array.init (G.arc_count g) (fun _ ->
            if Eutil.Prng.float rng < 0.8 then float_of_int (1 + Eutil.Prng.int rng 3)
            else 1e-3 +. Eutil.Prng.float rng)
      in
      let on = Array.init (G.arc_count g) (fun _ -> Eutil.Prng.float rng < 0.85) in
      let weight arc = w.(arc.G.id) and active arc = on.(arc.G.id) in
      same_tree g ~weight ~active ~src:(Eutil.Prng.int rng n))

(* A k = 4 or k = 6 fat-tree, whose hosts are the degree-1 leaves the
   search never pushes (the random graphs above have few). Links are on
   with probability 0.9; weights are drawn from 1..3 (ties everywhere) or
   are congestion-like floats, latency times 1 + 3u. *)
let fattrees = [| Topo.Fattree.make 4; Topo.Fattree.make 6 |]

let random_fattree rng =
  let ft = fattrees.(Eutil.Prng.int rng 2) in
  let g = ft.Topo.Fattree.graph in
  let ties = Eutil.Prng.float rng < 0.5 in
  let w =
    Array.init (G.arc_count g) (fun a ->
        if ties then float_of_int (1 + Eutil.Prng.int rng 3)
        else (G.arc g a).G.latency *. (1.0 +. (3.0 *. Eutil.Prng.float rng)))
  in
  let on = Array.init (G.link_count g) (fun _ -> Eutil.Prng.float rng < 0.9) in
  let switches = Array.concat Topo.Fattree.[ ft.edges; ft.aggs; ft.cores ] in
  (ft, switches, (fun arc -> w.(arc.G.id)), fun arc -> on.(arc.G.link))

(* On fat-trees, host to host, host to switch and switch to host. *)
let prop_fattree_shortest_path_vs_reference =
  QCheck.Test.make ~name:"fat-tree shortest_path equals full-tree reference" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let ft, switches, weight, active = random_fattree rng in
      let hosts = ft.Topo.Fattree.hosts in
      let pick a = a.(Eutil.Prng.int rng (Array.length a)) in
      List.for_all
        (fun (from, towards) ->
          let src = pick from in
          same_path ft.Topo.Fattree.graph ~weight ~active ~src ~dst:(pick towards))
        [ (hosts, hosts); (hosts, hosts); (hosts, switches); (switches, hosts) ])

(* [run] on fat-trees: every host, never pushed, still gets the reference's
   distance bits and parent arc. *)
let prop_fattree_run_vs_reference =
  QCheck.Test.make ~name:"fat-tree run equals full-tree reference" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let ft, switches, weight, active = random_fattree rng in
      let from = if Eutil.Prng.float rng < 0.5 then ft.Topo.Fattree.hosts else switches in
      same_tree ft.Topo.Fattree.graph ~weight ~active
        ~src:from.(Eutil.Prng.int rng (Array.length from)))

(* [f ()] run with Obs on, with the queue removals and insertions it made,
   read from the Obs counters. *)
let counted f =
  let read name = Option.value (Obs.Registry.value Obs.Registry.default name) ~default:0.0 in
  let pops = read "routing_heap_pops_total" and pushes = read "routing_heap_pushes_total" in
  Obs.set_enabled true;
  let x = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
  ( x,
    int_of_float (read "routing_heap_pops_total" -. pops),
    int_of_float (read "routing_heap_pushes_total" -. pushes) )

(* The leaf rule's work on the k = 12 fat-tree (432 hosts, 180 switches),
   all links on, latency weights, read from the Obs counters. A cross-pod
   host-to-host search pops the source, every switch (each is closer than
   the destination) and the destination: no other host is ever pushed.
   [run] from a host pushes the source and the switches only, and still
   gives every host its distance. *)
let test_fattree_leaf_work () =
  let ft = Topo.Fattree.make 12 in
  let g = ft.Topo.Fattree.graph and hosts = ft.Topo.Fattree.hosts in
  let switches = G.node_count g - Array.length hosts in
  let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
  let p, pops, _ = counted (fun () -> Routing.Dijkstra.shortest_path g ~src ~dst ()) in
  Alcotest.(check (option int)) "cross-pod path" (Some 6) (Option.map Path.hops p);
  Alcotest.(check bool)
    (Printf.sprintf "shortest_path pops %d <= 2 + %d" pops switches)
    true
    (pops <= 2 + switches);
  let res, _, pushes = counted (fun () -> Routing.Dijkstra.run g ~src ()) in
  Alcotest.(check bool)
    (Printf.sprintf "run pushes %d <= 1 + %d" pushes switches)
    true
    (pushes <= 1 + switches);
  Alcotest.(check bool) "every host reached" true
    (Array.for_all (fun h -> Float.is_finite res.Routing.Dijkstra.dist.(h)) hosts)

(* The congestion entry point, [Feasible.place]'s search, against the
   closure arm and the frozen Dijkstra, both given closures written the way
   [Feasible.congestion_weight] and [place]'s filter are. Loads come from
   three values, so weights tie; residuals sit at, just below and just
   above [demand -. 1e-9], or far above it; some links are off. Each case
   also runs through a walk set of the link mask: the same path, the same
   distance (the path's weights summed from 0, to the bit, against
   [run]'s), and the same queue insertions and removals as the closure
   arm. A leaf of the graph, its only link off in half the seeds, is the
   source of one case and the destination of two: with ties everywhere,
   relaxing a leaf destination's in-arc anywhere but in its place among
   its neighbour's arcs changes the pop count. *)
let prop_congestion_vs_closures =
  QCheck.Test.make ~name:"congestion search equals closure search" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 2 + Eutil.Prng.int rng 29 in
      let g = random_graph rng n in
      let n_arcs = G.arc_count g in
      let demand = 1e8 *. (0.5 +. Eutil.Prng.float rng) in
      let edge = demand -. 1e-9 in
      let on = Array.init (G.link_count g) (fun _ -> Eutil.Prng.float rng < 0.85) in
      let load = Array.init n_arcs (fun _ -> [| 0.0; 1e8; 3e8 |].(Eutil.Prng.int rng 3)) in
      let residual =
        Array.init n_arcs (fun _ ->
            [| edge; Float.pred edge; Float.succ edge; 1e9 |].(Eutil.Prng.int rng 4))
      in
      let leaves = Array.of_list (List.filter (fun v -> G.degree g v = 1) (List.init n Fun.id)) in
      let leaf =
        match leaves with
        | [||] -> None
        | _ ->
            let v = leaves.(Eutil.Prng.int rng (Array.length leaves)) in
            if Eutil.Prng.float rng < 0.5 then on.((G.arc g (G.out_arcs g v).(0)).G.link) <- false;
            Some v
      in
      let weight arc =
        arc.G.latency *. (1.0 +. (3.0 *. (load.(arc.G.id) /. arc.G.capacity)))
      in
      let active arc = on.(arc.G.link) && residual.(arc.G.id) >= demand -. 1e-9 in
      let walk = Routing.Dijkstra.walk g ~on in
      let pairs =
        List.init 6 (fun k ->
            let src = Eutil.Prng.int rng n in
            (src, if k = 0 then src else Eutil.Prng.int rng n))
        @
        match leaf with
        | None -> []
        | Some v ->
            let other () = Eutil.Prng.int rng n in
            [ (v, other ()); (other (), v); (other (), v) ]
      in
      let same_dist p dst =
        let tree = Routing.Dijkstra.run g ~weight ~active ~src:p.Path.src () in
        let d = Array.fold_left (fun acc a -> acc +. weight (G.arc g a)) 0.0 p.Path.arcs in
        Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float tree.Routing.Dijkstra.dist.(dst))
      in
      List.for_all
        (fun (src, dst) ->
          let got =
            Routing.Dijkstra.shortest_path_congested g ~on ~residual ~load ~demand ~src ~dst
          in
          let closed, pops, pushes =
            counted (fun () -> Routing.Dijkstra.shortest_path g ~weight ~active ~src ~dst ())
          in
          let walked, walk_pops, walk_pushes =
            counted (fun () ->
                Routing.Dijkstra.shortest_path_congested ~walk g ~on ~residual ~load ~demand ~src
                  ~dst)
          in
          Option.equal Path.equal got closed
          && Option.equal Path.equal got
               (Greedy_reference.Dijkstra.shortest_path g ~weight ~active ~src ~dst ())
          && Option.equal Path.equal walked got
          && Option.fold ~none:true ~some:(fun p -> same_dist p dst) walked
          && walk_pops = pops && walk_pushes = pushes)
        pairs)

exception Raised

(* On a domain of its own, a latency-weighted search from [src] to [dst]
   whose weight raises at its [after]-th call, then the query [src'] to
   [dst']; and the query alone on another new domain. The raising search
   leaves the first domain's workspace half written, and the next search
   there must not see it. *)
let query_after_raise g ~after ~src ~dst ~src' ~dst' =
  let query () = Routing.Dijkstra.shortest_path g ~src:src' ~dst:dst' () in
  let on_new_domain f = Domain.join (Domain.spawn f) in
  let got =
    on_new_domain (fun () ->
        let calls = ref 0 in
        let weight arc =
          incr calls;
          if !calls >= after then raise Raised;
          arc.G.latency
        in
        (try ignore (Routing.Dijkstra.shortest_path g ~weight ~src ~dst ()) with Raised -> ());
        query ())
  in
  Option.equal Path.equal got (on_new_domain query)

let prop_workspace_after_raise =
  QCheck.Test.make ~name:"workspace after a raising search" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 2 + Eutil.Prng.int rng 29 in
      let g = random_graph rng n in
      let pick () = Eutil.Prng.int rng n in
      query_after_raise g ~after:(1 + Eutil.Prng.int rng (2 * n)) ~src:(pick ()) ~dst:(pick ())
        ~src':(pick ()) ~dst':(pick ()))

(* The same on the k = 12 fat-tree, host to host: the raising search stops
   after 1 to 300 weighed arcs, a few pods into its sweep. *)
let test_fattree_workspace_after_raise () =
  let ft = Topo.Fattree.make 12 in
  let hosts = ft.Topo.Fattree.hosts in
  let rng = Eutil.Prng.create 12 in
  let pick () = hosts.(Eutil.Prng.int rng (Array.length hosts)) in
  for _ = 1 to 20 do
    let after = 1 + Eutil.Prng.int rng 300 in
    let src = pick () and dst = pick () and src' = pick () and dst' = pick () in
    Alcotest.(check bool)
      (Printf.sprintf "raise after %d weights" after)
      true
      (query_after_raise ft.Topo.Fattree.graph ~after ~src ~dst ~src' ~dst')
  done

(* The lazy-heap search the indexed queue replaced, as a test oracle: every
   strict decrease or tie pushes an entry on the frozen heap, and a popped
   settled node is skipped. Unlike [Greedy_reference.Dijkstra] it never
   re-parents a settled node, so it also holds under zero weights, where
   the order in which equal distances settle decides parents. *)
let lazy_heap_tree g ~weight ~active ~src =
  let n = G.node_count g in
  let dist = Array.make n infinity and prev_arc = Array.make n (-1) in
  let done_ = Array.make n false and heap = Heap_reference.create () in
  dist.(src) <- 0.0;
  Heap_reference.push heap 0.0 src;
  let rec loop () =
    match Heap_reference.pop heap with
    | None -> ()
    | Some (_, u) ->
        if not done_.(u) then begin
          done_.(u) <- true;
          Array.iter
            (fun aid ->
              let arc = G.arc g aid in
              let v = arc.G.dst in
              if (not done_.(v)) && active arc then begin
                let w = weight arc in
                if w < infinity && w >= 0.0 then begin
                  let nd = dist.(u) +. w in
                  if nd < dist.(v) || (nd = dist.(v) && prev_arc.(v) >= 0 && aid < prev_arc.(v))
                  then begin
                    dist.(v) <- nd;
                    prev_arc.(v) <- aid;
                    Heap_reference.push heap nd v
                  end
                end
              end)
            (G.out_arcs g u)
        end;
        loop ()
  in
  loop ();
  { Routing.Dijkstra.dist; prev_arc }

(* With weights in 0..2, equal distances are everywhere and a zero-weight
   arc between two of them makes the settle order decide a parent. [run]
   and [shortest_path] must still settle in the lazy heap's order: the
   same distance bits and parents, and the path the lazy tree gives. *)
let prop_queue_vs_lazy_heap =
  QCheck.Test.make ~name:"queue equals lazy heap with zero weights" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 2 + Eutil.Prng.int rng 29 in
      let g = random_graph rng n in
      let w = Array.init (G.arc_count g) (fun _ -> float_of_int (Eutil.Prng.int rng 3)) in
      let on = Array.init (G.arc_count g) (fun _ -> Eutil.Prng.float rng < 0.9) in
      let weight arc = w.(arc.G.id) and active arc = on.(arc.G.id) in
      let src = Eutil.Prng.int rng n in
      let want = lazy_heap_tree g ~weight ~active ~src in
      let got = Routing.Dijkstra.run g ~weight ~active ~src () in
      Array.for_all2
        (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
        want.Routing.Dijkstra.dist got.Routing.Dijkstra.dist
      && Array.for_all2 Int.equal want.Routing.Dijkstra.prev_arc got.Routing.Dijkstra.prev_arc
      && List.for_all
           (fun dst ->
             dst = src
             || Option.equal Path.equal
                  (Routing.Dijkstra.path_to g want dst)
                  (Routing.Dijkstra.shortest_path g ~weight ~active ~src ~dst ()))
           (List.init n Fun.id))

(* Dijkstra distances equal Bellman-Ford distances on random graphs. *)
let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~name:"dijkstra matches bellman-ford" ~count:50
    QCheck.(pair (int_range 3 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Eutil.Prng.create seed in
      let b = G.Builder.create () in
      let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
      for i = 1 to n - 1 do
        let j = Eutil.Prng.int rng i in
        ignore
          (G.Builder.add_link b ~capacity:1e9
             ~latency:(0.001 +. Eutil.Prng.float rng)
             nodes.(i) nodes.(j))
      done;
      (* A few extra random links. *)
      for _ = 1 to n do
        let i = Eutil.Prng.int rng n and j = Eutil.Prng.int rng n in
        if i <> j then
          try
            ignore
              (G.Builder.add_link b ~capacity:1e9
                 ~latency:(0.001 +. Eutil.Prng.float rng)
                 nodes.(i) nodes.(j))
          with Invalid_argument _ -> ()
      done;
      let g = G.Builder.build b in
      let res = Routing.Dijkstra.run g ~src:0 () in
      (* Bellman-Ford. *)
      let dist = Array.make n infinity in
      dist.(0) <- 0.0;
      for _ = 1 to n do
        G.fold_arcs g ~init:() ~f:(fun () a ->
            if dist.(a.G.src) +. a.G.latency < dist.(a.G.dst) then
              dist.(a.G.dst) <- dist.(a.G.src) +. a.G.latency)
      done;
      Array.for_all2
        (fun d1 d2 -> d1 = d2 || abs_float (d1 -. d2) < 1e-9)
        res.Routing.Dijkstra.dist dist)

let test_invcap_weights () =
  let g = Topo.Geant.make () in
  let w = Routing.Spf.invcap g in
  (* The largest capacity (10G) weighs 1; a 2.5G link weighs 4. *)
  let found_one = ref false and found_four = ref false in
  G.fold_arcs g ~init:() ~f:(fun () a ->
      let x = w a in
      if abs_float (x -. 1.0) < 1e-9 then found_one := true;
      if abs_float (x -. 4.0) < 1e-9 then found_four := true);
  Alcotest.(check bool) "10G weight 1" true !found_one;
  Alcotest.(check bool) "2.5G weight 4" true !found_four

let test_spf_routes_all_pairs () =
  let g = Topo.Geant.make () in
  let nodes = G.traffic_nodes g in
  let pairs =
    Array.to_list nodes
    |> List.concat_map (fun o ->
           Array.to_list nodes |> List.filter_map (fun d -> if o <> d then Some (o, d) else None))
  in
  let table = Routing.Spf.routes g ~pairs () in
  Alcotest.(check int) "all pairs routed" (List.length pairs) (Hashtbl.length table);
  (* Every route actually goes from o to d. *)
  Hashtbl.iter
    (fun (o, d) p ->
      Alcotest.(check int) "src" o p.Path.src;
      Alcotest.(check int) "dst" d p.Path.dst)
    table

let test_delay_bounds () =
  let g = Topo.Geant.make () in
  let o = G.node_of_name g "PT" and d = G.node_of_name g "SE" in
  let bounds = Routing.Spf.delay_bound_table g ~pairs:[ (o, d) ] ~beta:0.25 in
  let bound = Hashtbl.find bounds (o, d) in (* lint: allow hashtbl-find *)
  let ospf =
    Option.get (Routing.Dijkstra.shortest_path g ~weight:(Routing.Spf.invcap g) ~src:o ~dst:d ())
  in
  Alcotest.(check (float 1e-12)) "1.25x ospf delay" (1.25 *. Path.latency g ospf) bound

let test_yen_basic () =
  let g = Fixtures.square_with_diagonal () in
  let paths = Routing.Yen.k_shortest g ~src:0 ~dst:2 ~k:3 () in
  Alcotest.(check int) "three distinct paths" 3 (List.length paths);
  (* Nondecreasing latency. *)
  let lats = List.map (Path.latency g) paths in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare lats = lats);
  (* All distinct and loopless. *)
  let distinct = List.sort_uniq Fixtures.path_compare paths in
  Alcotest.(check int) "distinct" 3 (List.length distinct);
  List.iter
    (fun p ->
      let ns = Path.nodes g p in
      let sorted = Array.copy ns in
      Array.sort Int.compare sorted;
      let dup = ref false in
      for i = 1 to Array.length sorted - 1 do
        if sorted.(i) = sorted.(i - 1) then dup := true
      done;
      Alcotest.(check bool) "loopless" false !dup)
    paths

let test_yen_k_larger_than_path_count () =
  let g = Fixtures.line 3 in
  let paths = Routing.Yen.k_shortest g ~src:0 ~dst:2 ~k:5 () in
  Alcotest.(check int) "only one path exists" 1 (List.length paths)

let test_yen_first_is_shortest () =
  let g = Topo.Geant.make () in
  let o = G.node_of_name g "PT" and d = G.node_of_name g "SE" in
  match Routing.Yen.k_shortest g ~src:o ~dst:d ~k:4 () with
  | first :: _ ->
      let direct = Option.get (Routing.Dijkstra.shortest_path g ~src:o ~dst:d ()) in
      Alcotest.(check (float 1e-12)) "same latency" (Path.latency g direct) (Path.latency g first)
  | [] -> Alcotest.fail "no paths"

let prop_yen_sorted_distinct =
  QCheck.Test.make ~name:"yen yields sorted distinct loopless paths" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let n = 8 in
      let b = G.Builder.create () in
      let nodes = Array.init n (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
      for i = 1 to n - 1 do
        let j = Eutil.Prng.int rng i in
        ignore (G.Builder.add_link b ~capacity:1e9 ~latency:(0.001 +. Eutil.Prng.float rng) nodes.(i) nodes.(j))
      done;
      for _ = 1 to 6 do
        let i = Eutil.Prng.int rng n and j = Eutil.Prng.int rng n in
        if i <> j then
          try ignore (G.Builder.add_link b ~capacity:1e9 ~latency:(0.001 +. Eutil.Prng.float rng) nodes.(i) nodes.(j))
          with Invalid_argument _ -> ()
      done;
      let g = G.Builder.build b in
      let paths = Routing.Yen.k_shortest g ~src:0 ~dst:(n - 1) ~k:5 () in
      let lats = List.map (Path.latency g) paths in
      List.sort Float.compare lats = lats
      && List.length (List.sort_uniq Fixtures.path_compare paths) = List.length paths)

(* Distinct undirected links [p] shares with any path of [others]. *)
let shared_links g p others =
  let used = List.concat_map (fun o -> Array.to_list (Path.links g o)) others in
  Array.to_list (Path.links g p)
  |> List.sort_uniq Int.compare
  |> List.filter (fun l -> List.mem l used)
  |> List.length

let test_disjoint_failover () =
  let g = Fixtures.square_with_diagonal () in
  let direct = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:2 ()) in
  let failover = Option.get (Routing.Disjoint.max_disjoint g ~protect:[ direct ] ~src:0 ~dst:2 ()) in
  Alcotest.(check int) "no shared link" 0 (shared_links g failover [ direct ]);
  (* On a line no disjoint path exists: max_disjoint still returns the path. *)
  let line = Fixtures.line 3 in
  let p = Option.get (Routing.Dijkstra.shortest_path line ~src:0 ~dst:2 ()) in
  let f = Option.get (Routing.Disjoint.max_disjoint line ~protect:[ p ] ~src:0 ~dst:2 ()) in
  Alcotest.(check int) "overlap unavoidable" 2 (shared_links line f [ p ])

let test_avoiding () =
  let g = Fixtures.square_with_diagonal () in
  let diag = (G.arc g (arc_between g 0 2)).G.link in
  let p = Option.get (Routing.Disjoint.avoiding g ~avoid:[ diag ] ~src:0 ~dst:2 ()) in
  Alcotest.(check bool) "avoids" false (Path.uses_link g p diag);
  (* Avoiding every link around node 2 disconnects it. *)
  let incident =
    List.filter
      (fun l ->
        let i, j = G.link_endpoints g l in
        i = 2 || j = 2)
      (List.init (G.link_count g) (fun l -> l))
  in
  Alcotest.(check bool) "disconnected" true
    (Routing.Disjoint.avoiding g ~avoid:incident ~src:0 ~dst:2 () = None)

let () =
  Alcotest.run "routing"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "line distances" `Quick test_dijkstra_line;
          Alcotest.test_case "weight sensitivity" `Quick test_dijkstra_prefers_light_arcs;
          Alcotest.test_case "activity filter" `Quick test_dijkstra_respects_active;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          QCheck_alcotest.to_alcotest prop_dijkstra_vs_bellman_ford;
          Alcotest.test_case "zero weight keeps the tree" `Quick test_dijkstra_zero_weight_no_cycle;
          QCheck_alcotest.to_alcotest prop_shortest_path_vs_reference;
          QCheck_alcotest.to_alcotest prop_run_vs_reference;
          QCheck_alcotest.to_alcotest prop_fattree_shortest_path_vs_reference;
          QCheck_alcotest.to_alcotest prop_fattree_run_vs_reference;
          Alcotest.test_case "fat-tree leaf work" `Quick test_fattree_leaf_work;
          QCheck_alcotest.to_alcotest prop_congestion_vs_closures;
          QCheck_alcotest.to_alcotest prop_workspace_after_raise;
          Alcotest.test_case "fat-tree workspace after a raising search" `Quick
            test_fattree_workspace_after_raise;
          QCheck_alcotest.to_alcotest prop_queue_vs_lazy_heap;
        ] );
      ( "spf",
        [
          Alcotest.test_case "invcap weights" `Quick test_invcap_weights;
          Alcotest.test_case "all-pairs routes" `Quick test_spf_routes_all_pairs;
          Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
        ] );
      ( "yen",
        [
          Alcotest.test_case "basic" `Quick test_yen_basic;
          Alcotest.test_case "k larger than path count" `Quick test_yen_k_larger_than_path_count;
          Alcotest.test_case "first is shortest" `Quick test_yen_first_is_shortest;
          QCheck_alcotest.to_alcotest prop_yen_sorted_distinct;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "failover" `Quick test_disjoint_failover;
          Alcotest.test_case "avoiding" `Quick test_avoiding;
        ] );
    ]
