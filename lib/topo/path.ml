type t = { src : int; dst : int; arcs : int array }

let of_arcs g arc_ids =
  match arc_ids with
  | [] -> invalid_arg "Path.of_arcs: empty"
  | first :: _ ->
      let rec check prev = function
        | [] -> prev
        | a :: rest ->
            let arc = Graph.arc g a in
            if arc.Graph.src <> prev then invalid_arg "Path.of_arcs: not contiguous";
            check arc.Graph.dst rest
      in
      let src = (Graph.arc g first).Graph.src in
      let dst = check src arc_ids in
      { src; dst; arcs = Array.of_list arc_ids }

let hops p = Array.length p.arcs

let nodes g p =
  let n = Array.length p.arcs in
  Array.init (n + 1) (fun i ->
      if i = 0 then p.src else (Graph.arc g p.arcs.(i - 1)).Graph.dst)

let latency g p =
  Array.fold_left (fun acc a -> acc +. (Graph.arc g a).Graph.latency) 0.0 p.arcs

let links g p = Array.map (fun a -> (Graph.arc g a).Graph.link) p.arcs

let uses_link g p l = Array.exists (fun a -> (Graph.arc g a).Graph.link = l) p.arcs

let active g st p = Array.for_all (fun a -> State.arc_on g st a) p.arcs

let equal a b = a.src = b.src && a.dst = b.dst && a.arcs = b.arcs

let shares_link g a b =
  let la = links g a in
  let lb = links g b in
  Array.exists (fun l -> Array.exists (fun l' -> l = l') lb) la

let pp g ppf p =
  let ns = nodes g p in
  let names = Array.to_list (Array.map (Graph.name g) ns) in
  Format.fprintf ppf "%s" (String.concat "-" names)
