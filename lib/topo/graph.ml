type role = Host | Edge | Aggregation | Core | Pop | Backbone | Metro | Feeder

let role_to_string = function
  | Host -> "host"
  | Edge -> "edge"
  | Aggregation -> "aggregation"
  | Core -> "core"
  | Pop -> "pop"
  | Backbone -> "backbone"
  | Metro -> "metro"
  | Feeder -> "feeder"

type arc = {
  id : int;
  src : int;
  dst : int;
  capacity : float;
  latency : float;
  rev : int;
  link : int;
}

type t = {
  names : string array;
  roles : role array;
  arcs : arc array;
  out_adj : int array array;
  in_adj : int array array;
  links : (int * int) array;
  by_name : (string, int) Hashtbl.t;
  by_ends : (int * int, int) Hashtbl.t;
}

let node_count g = Array.length g.names
let arc_count g = Array.length g.arcs
let link_count g = Array.length g.links
let name g n = g.names.(n)
let role g n = g.roles.(n)
let node_of_name g s =
  match Hashtbl.find_opt g.by_name s with
  | Some n -> n
  | None -> invalid_arg ("Graph.node_of_name: unknown node " ^ s)
let arc g a = g.arcs.(a)
let out_arcs g n = g.out_adj.(n)
let in_arcs g n = g.in_adj.(n)
let adjacency g = g.out_adj
let arcs g = g.arcs
let degree g n = Array.length g.out_adj.(n)
let link_endpoints g l = g.links.(l)

(* [Builder.build] lays link l out as arcs 2l and 2l + 1. *)
let arcs_of_link g l =
  if l < 0 || l >= Array.length g.links then
    invalid_arg (Printf.sprintf "Graph.arcs_of_link: link %d out of range" l);
  (2 * l, (2 * l) + 1)

let link_capacity g l =
  let a, _ = arcs_of_link g l in
  g.arcs.(a).capacity

let link_latency g l =
  let a, _ = arcs_of_link g l in
  g.arcs.(a).latency

let find_arc g i j = Hashtbl.find_opt g.by_ends (i, j)

let fold_nodes g ~init ~f =
  let acc = ref init in
  for n = 0 to node_count g - 1 do
    acc := f !acc n
  done;
  !acc

let fold_arcs g ~init ~f = Array.fold_left f init g.arcs

let fold_links g ~init ~f =
  let acc = ref init in
  for l = 0 to link_count g - 1 do
    acc := f !acc l
  done;
  !acc

let iter_links g ~f =
  for l = 0 to link_count g - 1 do
    f l
  done

let nodes_with_role g r =
  fold_nodes g ~init:[] ~f:(fun acc n -> if g.roles.(n) = r then n :: acc else acc) |> List.rev

let traffic_nodes g =
  let hosts = nodes_with_role g Host in
  let selected =
    if hosts <> [] then hosts
    else
      fold_nodes g ~init:[] ~f:(fun acc n -> if g.roles.(n) <> Feeder then n :: acc else acc)
      |> List.rev
  in
  Array.of_list selected

let signature g =
  let b = Buffer.create 1024 in
  Buffer.add_string b (string_of_int (node_count g));
  for n = 0 to node_count g - 1 do
    Buffer.add_char b '|';
    Buffer.add_string b g.names.(n);
    Buffer.add_char b ':';
    Buffer.add_string b (role_to_string g.roles.(n))
  done;
  Array.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "|%d>%d#%d:%h:%h" a.src a.dst a.link a.capacity a.latency))
    g.arcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp ppf g =
  Format.fprintf ppf "graph(%d nodes, %d links, %d arcs)" (node_count g) (link_count g)
    (arc_count g)

module Builder = struct
  type node_rec = { nname : string; nrole : role }
  type link_rec = { a : int; b : int; cap_ab : float; cap_ba : float; lat : float }

  type t = {
    mutable nodes : node_rec list;
    mutable nnodes : int;
    mutable links_rev : link_rec list;
    mutable nlinks : int;
    seen_names : (string, unit) Hashtbl.t;
    seen_links : (int * int, unit) Hashtbl.t;
  }

  let create () =
    {
      nodes = [];
      nnodes = 0;
      links_rev = [];
      nlinks = 0;
      seen_names = Hashtbl.create 64;
      seen_links = Hashtbl.create 64;
    }

  let add_node b ?(role = Pop) name =
    if Hashtbl.mem b.seen_names name then invalid_arg ("Builder.add_node: duplicate " ^ name);
    Hashtbl.add b.seen_names name ();
    let id = b.nnodes in
    b.nodes <- { nname = name; nrole = role } :: b.nodes;
    b.nnodes <- b.nnodes + 1;
    id

  let add_link b ?capacity_back ~capacity ~latency i j =
    if i = j then invalid_arg "Builder.add_link: self loop";
    if i < 0 || j < 0 || i >= b.nnodes || j >= b.nnodes then
      invalid_arg "Builder.add_link: unknown node";
    let key = (min i j, max i j) in
    if Hashtbl.mem b.seen_links key then invalid_arg "Builder.add_link: duplicate link";
    let cap_ba = Option.value capacity_back ~default:capacity in
    let finite_positive x = Float.is_finite x && x > 0.0 in
    if not (finite_positive latency) then invalid_arg "Builder.add_link: latency";
    if not (finite_positive capacity && finite_positive cap_ba) then
      invalid_arg "Builder.add_link: capacity";
    Hashtbl.add b.seen_links key ();
    let id = b.nlinks in
    b.links_rev <- { a = i; b = j; cap_ab = capacity; cap_ba; lat = latency } :: b.links_rev;
    b.nlinks <- b.nlinks + 1;
    id

  let build b =
    let nodes = Array.of_list (List.rev b.nodes) in
    let links = Array.of_list (List.rev b.links_rev) in
    let n = Array.length nodes in
    let nlinks = Array.length links in
    let arcs = Array.make (2 * nlinks) None in
    Array.iteri
      (fun l { a; b = bb; cap_ab; cap_ba; lat } ->
        let fwd = 2 * l and bwd = (2 * l) + 1 in
        arcs.(fwd) <-
          Some { id = fwd; src = a; dst = bb; capacity = cap_ab; latency = lat; rev = bwd; link = l };
        arcs.(bwd) <-
          Some { id = bwd; src = bb; dst = a; capacity = cap_ba; latency = lat; rev = fwd; link = l })
      links;
    let arcs =
      Array.map
        (function
          | Some a -> a
          | None -> invalid_arg "Graph.Builder.build: arc slot left unfilled")
        arcs
    in
    let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
    Array.iter
      (fun a ->
        out_deg.(a.src) <- out_deg.(a.src) + 1;
        in_deg.(a.dst) <- in_deg.(a.dst) + 1)
      arcs;
    let out_adj = Array.init n (fun i -> Array.make out_deg.(i) 0) in
    let in_adj = Array.init n (fun i -> Array.make in_deg.(i) 0) in
    let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
    Array.iter
      (fun a ->
        out_adj.(a.src).(out_fill.(a.src)) <- a.id;
        out_fill.(a.src) <- out_fill.(a.src) + 1;
        in_adj.(a.dst).(in_fill.(a.dst)) <- a.id;
        in_fill.(a.dst) <- in_fill.(a.dst) + 1)
      arcs;
    let by_name = Hashtbl.create n in
    Array.iteri (fun i nr -> Hashtbl.add by_name nr.nname i) nodes;
    let by_ends = Hashtbl.create (2 * nlinks) in
    Array.iter (fun a -> Hashtbl.add by_ends (a.src, a.dst) a.id) arcs;
    {
      names = Array.map (fun nr -> nr.nname) nodes;
      roles = Array.map (fun nr -> nr.nrole) nodes;
      arcs;
      out_adj;
      in_adj;
      links = Array.map (fun l -> (l.a, l.b)) links;
      by_name;
      by_ends;
    }
end
