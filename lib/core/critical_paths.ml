type t = {
  g : Topo.Graph.t;
  by_pair : (int * int, (Topo.Path.t * float ref) list ref) Hashtbl.t;
}

let create g = { g; by_pair = Hashtbl.create 256 }

let observe t routing tm =
  Traffic.Matrix.iter_flows tm ~f:(fun o d v ->
      match Hashtbl.find_opt routing (o, d) with
      | None -> ()
      | Some p ->
          let entry =
            match Hashtbl.find_opt t.by_pair (o, d) with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace t.by_pair (o, d) l;
                l
          in
          (match List.find_opt (fun (q, _) -> Topo.Path.equal p q) !entry with
          | Some (_, acc) -> acc := !acc +. v
          | None -> entry := (p, ref v) :: !entry))

let paths_of t o d =
  match Hashtbl.find_opt t.by_pair (o, d) with
  | None -> []
  | Some l ->
      List.map (fun (p, acc) -> (p, !acc)) !l
      |> List.sort
           (Eutil.Order.by
              (fun (p, v) -> (v, p.Topo.Path.arcs))
              (Eutil.Order.pair (Eutil.Order.desc Float.compare) (Eutil.Order.array Int.compare)))

let coverage t ~top =
  if top < 0 then invalid_arg "Critical_paths.coverage";
  let total = ref 0.0 and covered = ref 0.0 in
  Hashtbl.iter
    (fun (o, d) _ ->
      let ranked = paths_of t o d in
      List.iteri
        (fun i (_, v) ->
          total := !total +. v;
          if i < top then covered := !covered +. v)
        ranked)
    t.by_pair;
  if !total = 0.0 then 0.0 else 100.0 *. !covered /. !total

let coverage_curve t ~max =
  List.init max (fun i -> (i + 1, coverage t ~top:(i + 1)))
