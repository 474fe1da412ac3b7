(* Rocketfuel-like PoP-level ISP topologies. The paper evaluates on the
   Abovenet and Genuity maps inferred by Rocketfuel [Spring et al., ToN 2004];
   those maps are regenerated here as deterministic random geometric graphs
   with the published scale, and with the capacity assignment rule of
   [Kandula et al., SIGCOMM 2005] quoted by the paper: a link gets 100 Mbit/s
   if it is connected to an end point with degree < 7, and 52 Mbit/s
   otherwise. Latencies follow the embedded geography. *)

type spec = { name : string; pops : int; extra_links : int; seed : int }

let abovenet = { name = "abovenet"; pops = 22; extra_links = 28; seed = 6461 }
let genuity = { name = "genuity"; pops = 42; extra_links = 68; seed = 1 }

let dist (x1, y1) (x2, y2) = sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

(* Continental-scale latency: unit square ~ 4000 km, 5 us/km in fibre. *)
let latency_of_distance d = d *. 4000.0 *. 5e-6

(* Kandula et al. capacity rule: 100 Mbit/s at low-degree end points,
   52 Mbit/s on trunks between well-connected PoPs. *)
let edge_bps = Eutil.Units.to_float (Eutil.Units.mbps 100.0)
let trunk_bps = Eutil.Units.to_float (Eutil.Units.mbps 52.0)

(** [make spec] regenerates the map [spec] describes; equal specs give
    equal graphs.
    @raise Invalid_argument if [spec.pops < 2]: the spanning tree that
    keeps a map connected needs two PoPs. *)
let make spec =
  if spec.pops < 2 then
    invalid_arg (Printf.sprintf "Rocketfuel.make: %s needs at least 2 PoPs" spec.name);
  let rng = Eutil.Prng.create spec.seed in
  let n = spec.pops in
  let pos = Array.init n (fun _ -> (Eutil.Prng.float rng, Eutil.Prng.float rng)) in
  let b = Graph.Builder.create () in
  let nodes =
    Array.init n (fun i -> Graph.Builder.add_node b ~role:Pop (Printf.sprintf "%s%02d" spec.name i))
  in
  (* Spanning tree by Prim on Euclidean distance guarantees connectivity.
     Each step adds the shortest edge from the tree to [outside.(0 .. m-1)],
     the nodes not yet in it; a tie goes to the lowest (tree node, new
     node) pair. [near.(j)] is the tree node closest to [j], the lowest on
     a tie, at distance [near_d.(j)]. *)
  let near = Array.make n 0 in
  let near_d = Array.map (fun p -> dist pos.(0) p) pos in
  let outside = Array.init (n - 1) (fun x -> x + 1) in
  let before j j' =
    near_d.(j) < near_d.(j')
    || (near_d.(j) = near_d.(j') && (near.(j) < near.(j') || (near.(j) = near.(j') && j < j')))
  in
  let chosen = ref [] in
  for m = n - 1 downto 1 do
    let best = ref 0 in
    for x = 1 to m - 1 do
      if before outside.(x) outside.(!best) then best := x
    done;
    let j = outside.(!best) in
    outside.(!best) <- outside.(m - 1);
    chosen := (near.(j), j) :: !chosen;
    for x = 0 to m - 2 do
      let y = outside.(x) in
      let d = dist pos.(j) pos.(y) in
      if d < near_d.(y) || (d = near_d.(y) && j < near.(y)) then begin
        near.(y) <- j;
        near_d.(y) <- d
      end
    done
  done;
  let have = Hashtbl.create 64 in
  List.iter (fun (i, j) -> Hashtbl.add have (min i j, max i j) ()) !chosen;
  (* Extra links: preferential attachment weighted by inverse distance, which
     yields the hub-and-spoke structure typical of measured PoP maps. *)
  let deg = Array.make n 1 in
  List.iter
    (fun (i, j) ->
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1)
    !chosen;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < spec.extra_links && !attempts < 100 * spec.extra_links do
    incr attempts;
    let i = Eutil.Prng.int rng n in
    (* Pick the peer by degree-weighted sampling among the closest nodes. *)
    let candidates =
      List.init n (fun j -> j)
      |> List.filter (fun j -> j <> i && not (Hashtbl.mem have (min i j, max i j)))
      |> List.sort (Eutil.Order.by (fun j -> dist pos.(i) pos.(j)) Float.compare)
    in
    let near = List.filteri (fun k _ -> k < 8) candidates in
    let weight j = float_of_int deg.(j) in
    let total = List.fold_left (fun acc j -> acc +. weight j) 0.0 near in
    if total > 0.0 then begin
      let r = Eutil.Prng.float rng *. total in
      let rec pick acc = function
        | [] -> None
        | j :: rest -> if acc +. weight j >= r then Some j else pick (acc +. weight j) rest
      in
      match pick 0.0 near with
      | None -> ()
      | Some j ->
          Hashtbl.add have (min i j, max i j) ();
          deg.(i) <- deg.(i) + 1;
          deg.(j) <- deg.(j) + 1;
          incr added
    end
  done;
  let pairs = Hashtbl.fold (fun k () acc -> k :: acc) have [] |> List.sort Eutil.Order.int_pair in
  List.iter
    (fun (i, j) ->
      let capacity = if deg.(i) < 7 || deg.(j) < 7 then edge_bps else trunk_bps in
      let latency = max 0.5e-3 (latency_of_distance (dist pos.(i) pos.(j))) in
      ignore (Graph.Builder.add_link b ~capacity ~latency nodes.(i) nodes.(j)))
    pairs;
  Graph.Builder.build b
