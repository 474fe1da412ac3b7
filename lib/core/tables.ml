type entry = {
  origin : int;
  dest : int;
  always_on : Topo.Path.t;
  on_demand : Topo.Path.t list;
  failover : Topo.Path.t option;
}

type t = { g : Topo.Graph.t; table : (int * int, entry) Hashtbl.t }

let check_path g (o, d) p =
  if p.Topo.Path.src <> o || p.Topo.Path.dst <> d then
    invalid_arg
      (Printf.sprintf "Tables.make: path does not connect %s-%s" (Topo.Graph.name g o)
         (Topo.Graph.name g d))

let make g entries =
  let table = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      let key = (e.origin, e.dest) in
      if Hashtbl.mem table key then invalid_arg "Tables.make: duplicate pair";
      check_path g key e.always_on;
      List.iter (check_path g key) e.on_demand;
      Option.iter (check_path g key) e.failover;
      Hashtbl.replace table key e)
    entries;
  { g; table }

let graph t = t.g
let find t o d = Hashtbl.find_opt t.table (o, d)
let pairs t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort Eutil.Order.int_pair
let entries t = List.filter_map (fun (o, d) -> Hashtbl.find_opt t.table (o, d)) (pairs t)

let paths e =
  Array.of_list
    ((e.always_on :: e.on_demand) @ match e.failover with Some f -> [ f ] | None -> [])

let n_tables t =
  Hashtbl.fold (fun _ e acc -> max acc (Array.length (paths e))) t.table 0

let always_on_state t =
  let st = Topo.State.all_off t.g in
  Hashtbl.iter
    (fun _ e ->
      Array.iter (fun l -> Topo.State.set_link t.g st l true) (Topo.Path.links t.g e.always_on))
    t.table;
  st

let pp ppf t =
  Format.fprintf ppf "tables(%d pairs, up to %d paths each)" (Hashtbl.length t.table) (n_tables t)
