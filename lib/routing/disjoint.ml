let default_weight arc = arc.Topo.Graph.latency

let avoiding g ?(weight = default_weight) ?(active = fun _ -> true) ~avoid ~src ~dst () =
  let banned = Hashtbl.create (List.length avoid) in
  List.iter (fun l -> Hashtbl.replace banned l ()) avoid;
  let active' arc = active arc && not (Hashtbl.mem banned arc.Topo.Graph.link) in
  Dijkstra.shortest_path g ~weight ~active:active' ~src ~dst ()

let max_disjoint g ?(weight = default_weight) ~protect ~src ~dst () =
  let protected_links = Hashtbl.create 16 in
  List.iter
    (fun p -> Array.iter (fun l -> Hashtbl.replace protected_links l ()) (Topo.Path.links g p))
    protect;
  (* The penalty must dominate the total weight of any simple path so that
     minimising penalised weight minimises shared links first. *)
  let max_total =
    Topo.Graph.fold_arcs g ~init:0.0 ~f:(fun acc a ->
        let w = weight a in
        if w < infinity then acc +. w else acc)
  in
  let penalty = (2.0 *. max_total) +. 1.0 in
  let weight' arc =
    let w = weight arc in
    if Hashtbl.mem protected_links arc.Topo.Graph.link then w +. penalty else w
  in
  Dijkstra.shortest_path g ~weight:weight' ~src ~dst ()
