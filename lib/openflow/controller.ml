type t = {
  tables : Response.Tables.t;
  g : Topo.Graph.t;
  switch : Flowtable.t array;  (* per node *)
}

let create tables =
  let g = Response.Tables.graph tables in
  { tables; g; switch = Array.init (Topo.Graph.node_count g) (fun _ -> Flowtable.create ()) }

let graph t = t.g
let table_of t n = t.switch.(n)

let program t ~splits =
  (* Full recompilation: rebuild every switch table. Weighted buckets are
     accumulated per (node, pair) over all active paths through that node. *)
  Array.iteri (fun i _ -> t.switch.(i) <- Flowtable.create ()) t.switch;
  (* node -> (arc, weight) list; one scratch table reused across entries. *)
  let hops : (int, (int * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let o = e.Response.Tables.origin and d = e.Response.Tables.dest in
      let paths = Response.Tables.paths e in
      let split = splits o d in
      Hashtbl.reset hops;
      Array.iteri
        (fun i p ->
          if i < Array.length split && split.(i) > 0.0 then
            Array.iter
              (fun a ->
                let arc = Topo.Graph.arc t.g a in
                let u = arc.Topo.Graph.src in
                let prev = Option.value (Hashtbl.find_opt hops u) ~default:[] in
                (* Merge weight into an existing bucket for the same arc. *)
                let rec merge = function
                  | [] -> [ (a, split.(i)) ]
                  | (a', w) :: rest ->
                      if a' = a then (a', w +. split.(i)) :: rest else (a', w) :: merge rest
                in
                Hashtbl.replace hops u (merge prev))
              p.Topo.Path.arcs)
        paths;
      Hashtbl.iter
        (fun node buckets ->
          Flowtable.add t.switch.(node) ~priority:10
            ~matcher:{ Flowtable.src = Some o; dst = Some d }
            ~action:(Flowtable.Forward buckets))
        hops)
    (Response.Tables.entries t.tables)

let tables_installed t = Array.fold_left (fun acc tbl -> acc + Flowtable.size tbl) 0 t.switch
