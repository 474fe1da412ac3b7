(* The minimal-subset greedy as it was before the undo log, the crossing
   scan and the target-stopped Dijkstra, frozen as the test oracle for
   [Routing.Dijkstra], [Optim.Feasible] and [Optim.Minimal]. Every move
   folds and sorts all placed flows to find the ones it displaces, backs
   out with a full snapshot/restore, and every placement builds a whole
   shortest-path tree to read one path. The Obs instruments are removed (a
   second registration of the [routing_*] metric names would fail at
   start-up) and [Minimal.result] is the library's own type, so the two
   greedies return comparable values. Its Dijkstra runs on the frozen
   [Heap_reference], not on [Eutil.Heap]. Do not optimise it: its only job
   is to be obviously the old behaviour. *)

module Dijkstra = struct
  type result = { dist : float array; prev_arc : int array }

  let default_weight arc = arc.Topo.Graph.latency

  let run g ?(weight = default_weight) ?(active = fun _ -> true) ~src () =
    let n = Topo.Graph.node_count g in
    let dist = Array.make n infinity in
    let prev_arc = Array.make n (-1) in
    let done_ = Array.make n false in
    let heap : int Heap_reference.t = Heap_reference.create () in
    dist.(src) <- 0.0;
    Heap_reference.push heap 0.0 src;
    let rec loop () =
      match Heap_reference.pop heap with
      | None -> ()
      | Some (d, u) ->
          if not done_.(u) then begin
            done_.(u) <- true;
            let out = Topo.Graph.out_arcs g u in
            Array.iter
              (fun aid ->
                let arc = Topo.Graph.arc g aid in
                if active arc then begin
                  let w = weight arc in
                  if w < infinity && w >= 0.0 then begin
                    let nd = d +. w in
                    let v = arc.Topo.Graph.dst in
                    (* Deterministic tie-break: keep the smaller arc id. *)
                    if
                      nd < dist.(v)
                      || (nd = dist.(v) && prev_arc.(v) >= 0 && aid < prev_arc.(v))
                    then begin
                      dist.(v) <- nd;
                      prev_arc.(v) <- aid;
                      if not done_.(v) then Heap_reference.push heap nd v
                    end
                  end
                end)
              out;
            loop ()
          end
          else loop ()
    in
    loop ();
    { dist; prev_arc }

  let path_to g res dst =
    if res.dist.(dst) = infinity then None
    else begin
      let rec collect acc node =
        let a = res.prev_arc.(node) in
        if a < 0 then acc else collect (a :: acc) (Topo.Graph.arc g a).Topo.Graph.src
      in
      match collect [] dst with [] -> None | arcs -> Some (Topo.Path.of_arcs g arcs)
    end

  let shortest_path g ?weight ?active ~src ~dst () =
    let res = run g ?weight ?active ~src () in
    path_to g res dst
end

module Feasible = struct
  type t = {
    g : Topo.Graph.t;
    st : Topo.State.t;
    residual_a : float array;
    load_a : float array;
    placed : (int * int, Topo.Path.t * float) Hashtbl.t;
  }

  let create ?(margin = 1.0) ?state g =
    if margin <= 0.0 then invalid_arg "Feasible.create: margin";
    let st = match state with Some s -> s | None -> Topo.State.all_on g in
    let n_arcs = Topo.Graph.arc_count g in
    let residual_a =
      Array.init n_arcs (fun a -> margin *. (Topo.Graph.arc g a).Topo.Graph.capacity)
    in
    { g; st; residual_a; load_a = Array.make n_arcs 0.0; placed = Hashtbl.create 64 }

  let graph t = t.g
  let state t = t.st
  let residual t a = t.residual_a.(a)
  let load t a = t.load_a.(a)
  let utilization t a = t.load_a.(a) /. (Topo.Graph.arc t.g a).Topo.Graph.capacity

  let congestion_weight t arc =
    arc.Topo.Graph.latency *. (1.0 +. (3.0 *. utilization t arc.Topo.Graph.id))

  let commit t p demand =
    Array.iter
      (fun a ->
        t.residual_a.(a) <- t.residual_a.(a) -. demand;
        t.load_a.(a) <- t.load_a.(a) +. demand)
      p.Topo.Path.arcs;
    Hashtbl.replace t.placed (p.Topo.Path.src, p.Topo.Path.dst) (p, demand)

  let place t o d demand =
    if Hashtbl.mem t.placed (o, d) then invalid_arg "Feasible.place: already placed";
    if demand <= 0.0 then invalid_arg "Feasible.place: demand";
    let active arc =
      Topo.State.arc_on t.g t.st arc.Topo.Graph.id
      && t.residual_a.(arc.Topo.Graph.id) >= demand -. 1e-9
    in
    match Dijkstra.shortest_path t.g ~weight:(congestion_weight t) ~active ~src:o ~dst:d () with
    | None -> None
    | Some p ->
        commit t p demand;
        Some p

  let place_on t p demand =
    let key = (p.Topo.Path.src, p.Topo.Path.dst) in
    if Hashtbl.mem t.placed key then invalid_arg "Feasible.place_on: already placed";
    let ok =
      Array.for_all
        (fun a -> Topo.State.arc_on t.g t.st a && t.residual_a.(a) >= demand -. 1e-9)
        p.Topo.Path.arcs
    in
    if ok then commit t p demand;
    ok

  let remove t o d =
    match Hashtbl.find_opt t.placed (o, d) with
    | None -> None
    | Some (p, demand) ->
        Array.iter
          (fun a ->
            t.residual_a.(a) <- t.residual_a.(a) +. demand;
            t.load_a.(a) <- t.load_a.(a) -. demand)
          p.Topo.Path.arcs;
        Hashtbl.remove t.placed (o, d);
        Some (p, demand)

  let path_of t o d = Option.map fst (Hashtbl.find_opt t.placed (o, d))

  let flows t =
    Hashtbl.fold (fun (o, d) (_, v) acc -> (o, d, v) :: acc) t.placed []
    |> List.sort (Eutil.Order.triple Int.compare Int.compare Float.compare)

  let route_matrix t tm =
    List.for_all (fun (o, d, demand) -> place t o d demand <> None) (Traffic.Matrix.flows_desc tm)

  type snapshot = {
    s_residual : float array;
    s_load : float array;
    s_placed : (int * int, Topo.Path.t * float) Hashtbl.t;
  }

  let snapshot t =
    {
      s_residual = Array.copy t.residual_a;
      s_load = Array.copy t.load_a;
      s_placed = Hashtbl.copy t.placed;
    }

  let restore t s =
    Array.blit s.s_residual 0 t.residual_a 0 (Array.length t.residual_a);
    Array.blit s.s_load 0 t.load_a 0 (Array.length t.load_a);
    Hashtbl.reset t.placed;
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.s_placed [] in
    List.iter
      (fun (k, v) -> Hashtbl.replace t.placed k v)
      (List.sort (Eutil.Order.by fst Eutil.Order.int_pair) entries)
end

module Minimal = struct
  module U = Eutil.Units

  type reroute = Feasible.t -> int -> int -> float -> Topo.Path.t option

  let dijkstra_reroute f o d demand = Feasible.place f o d demand

  let ksp_reroute table f o d demand =
    match Hashtbl.find_opt table (o, d) with
    | None -> None
    | Some candidates ->
        let g = Feasible.graph f in
        let st = Feasible.state f in
        let usable =
          List.filter
            (fun p ->
              Topo.Path.active g st p
              && Array.for_all (fun a -> Feasible.residual f a >= demand -. 1e-9) p.Topo.Path.arcs)
            candidates
        in
        let cost p =
          Array.fold_left
            (fun acc a -> acc +. Feasible.congestion_weight f (Topo.Graph.arc g a))
            0.0 p.Topo.Path.arcs
        in
        let best =
          List.fold_left
            (fun acc p ->
              match acc with Some (bc, _) when bc <= cost p -> acc | _ -> Some (cost p, p))
            None usable
        in
        Option.map
          (fun (_, p) ->
            let ok = Feasible.place_on f p demand in
            assert ok;
            p)
          best

  type move = { links : int list; gain : float }

  let router_moves g power tm =
    let has_demand = Array.make (Topo.Graph.node_count g) false in
    Traffic.Matrix.iter_flows tm ~f:(fun o d _ ->
        has_demand.(o) <- true;
        has_demand.(d) <- true);
    Topo.Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
        if has_demand.(n) || Topo.Graph.role g n = Topo.Graph.Host then acc
        else begin
          let links =
            let ls = ref [] in
            Array.iter
              (fun a -> ls := (Topo.Graph.arc g a).Topo.Graph.link :: !ls)
              (Topo.Graph.out_arcs g n);
            List.sort_uniq Int.compare !ls
          in
          let gain =
            U.to_float
              (List.fold_left
                 (fun s l -> U.( +: ) s (Power.Model.link_power power g l))
                 (Power.Model.node_power power g n)
                 links)
          in
          { links; gain } :: acc
        end)
    |> List.sort
         (Eutil.Order.by
            (fun m -> (m.gain, m.links))
            (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

  let link_moves g power =
    Topo.Graph.fold_links g ~init:[] ~f:(fun acc l ->
        { links = [ l ]; gain = U.to_float (Power.Model.link_power power g l) } :: acc)
    |> List.sort
         (Eutil.Order.by
            (fun m -> (m.gain, m.links))
            (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

  let result_of g power f : Optim.Minimal.result =
    let st = Feasible.state f in
    let routing = Hashtbl.create 64 in
    List.iter
      (fun (o, d, _) ->
        match Feasible.path_of f o d with Some p -> Hashtbl.replace routing (o, d) p | None -> ())
      (Feasible.flows f);
    let arc_load = Array.init (Topo.Graph.arc_count g) (fun a -> Feasible.load f a) in
    {
      state = st;
      routing;
      arc_load;
      power_watts = U.to_float (Power.Model.total power g st);
      power_percent = Power.Model.percent_of_full power g st;
    }

  let try_move g f reroute move =
    let st = Feasible.state f in
    let relevant = List.filter (fun l -> Topo.State.link_on st l) move.links in
    if relevant = [] then false
    else begin
      let affected =
        List.filter
          (fun (o, d, _) ->
            match Feasible.path_of f o d with
            | Some p -> List.exists (fun l -> Topo.Path.uses_link g p l) relevant
            | None -> false)
          (Feasible.flows f)
        |> List.sort
             (Eutil.Order.by
                (fun (o, d, v) -> (v, o, d))
                (Eutil.Order.triple (Eutil.Order.desc Float.compare) Int.compare Int.compare))
      in
      let snap = Feasible.snapshot f in
      List.iter (fun (o, d, _) -> ignore (Feasible.remove f o d)) affected;
      List.iter (fun l -> Topo.State.set_link g st l false) relevant;
      let ok = List.for_all (fun (o, d, v) -> reroute f o d v <> None) affected in
      if not ok then begin
        List.iter (fun l -> Topo.State.set_link g st l true) relevant;
        Feasible.restore f snap
      end;
      ok
    end

  let power_down ?margin ?(pinned = fun _ -> false) ?(reroute = dijkstra_reroute) g power tm =
    let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
    let f = Feasible.create ~margin g in
    if not (Feasible.route_matrix f tm) then None
    else begin
      let moves = router_moves g power tm @ link_moves g power in
      List.iter
        (fun move ->
          if not (List.exists pinned move.links) then ignore (try_move g f reroute move))
        moves;
      Some (result_of g power f)
    end

  let evaluate ?margin g power tm state =
    let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
    let f = Feasible.create ~margin ~state g in
    if Feasible.route_matrix f tm then Some (result_of g power f) else None
end
