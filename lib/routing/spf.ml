let reference_bandwidth g =
  Topo.Graph.fold_arcs g ~init:0.0 ~f:(fun acc a -> max acc a.Topo.Graph.capacity)

let invcap g =
  let ref_bw = reference_bandwidth g in
  fun arc -> ref_bw /. arc.Topo.Graph.capacity

let routes g ?weight ~pairs () =
  let weight = match weight with Some w -> w | None -> invcap g in
  let by_origin = Hashtbl.create 16 in
  List.iter
    (fun (o, d) ->
      let l = Option.value (Hashtbl.find_opt by_origin o) ~default:[] in
      Hashtbl.replace by_origin o (d :: l))
    pairs;
  let table = Hashtbl.create (List.length pairs) in
  let origins = Hashtbl.fold (fun o dests acc -> (o, dests) :: acc) by_origin [] in
  List.iter
    (fun (o, dests) ->
      let res = Dijkstra.run g ~weight ~src:o () in
      List.iter
        (fun d ->
          match Dijkstra.path_to g res d with
          | Some p -> Hashtbl.replace table (o, d) p
          | None -> ())
        dests)
    (List.sort (Eutil.Order.by fst Int.compare) origins);
  table

let delay_bound_table g ~pairs ~beta =
  let table = routes g ~pairs () in
  let bounds = Hashtbl.create (Hashtbl.length table) in
  let entries = Hashtbl.fold (fun od p acc -> (od, p) :: acc) table [] in
  List.iter
    (fun (od, p) -> Hashtbl.replace bounds od ((1.0 +. beta) *. Topo.Path.latency g p))
    (List.sort (Eutil.Order.by fst Eutil.Order.int_pair) entries);
  bounds
