(* Topology selection shared by the respctl and respctld front ends:
   one name -> (graph, power model) table so both binaries accept the
   same TOPOLOGY argument, and the same --fraction option. *)

type named_topology = {
  tname : string;
  graph : Topo.Graph.t lazy_t;
  model : [ `Cisco | `Commodity ];
}

let topologies =
  [
    { tname = "geant"; graph = lazy (Topo.Geant.make ()); model = `Cisco };
    {
      tname = "abovenet";
      graph = lazy (Topo.Rocketfuel.make Topo.Rocketfuel.abovenet);
      model = `Cisco;
    };
    {
      tname = "genuity";
      graph = lazy (Topo.Rocketfuel.make Topo.Rocketfuel.genuity);
      model = `Cisco;
    };
    { tname = "pop-access"; graph = lazy (Topo.Pop_access.make ()); model = `Cisco };
    {
      tname = "fattree4";
      graph = lazy (Topo.Fattree.make 4).Topo.Fattree.graph;
      model = `Commodity;
    };
    {
      tname = "fattree8";
      graph = lazy (Topo.Fattree.make 8).Topo.Fattree.graph;
      model = `Commodity;
    };
  ]

let find_topology name =
  match List.find_opt (fun t -> t.tname = name) topologies with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown topology %S (available: %s)" name
           (String.concat ", " (List.map (fun t -> t.tname) topologies)))

let power_of t g =
  match t.model with
  | `Cisco -> Power.Model.cisco12000 g
  | `Commodity -> Power.Model.commodity_dc g

(* A number that must lie in a range: a value outside it is a usage error
   naming the option (exit 124), as a malformed number is, rather than an
   exception deep inside the run. *)
let checked base ~ok ~expected =
  let parse s =
    match Cmdliner.Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
    | Error _ as e -> e
  in
  Cmdliner.Arg.conv ~docv:(Cmdliner.Arg.conv_docv base) (parse, Cmdliner.Arg.conv_printer base)

let fraction_arg =
  Cmdliner.Arg.(
    value
    & opt (checked float ~ok:(fun f -> f > 0.0 && f <= 1.0) ~expected:"a fraction in (0, 1]") 0.7
    & info [ "fraction" ] ~docv:"F"
        ~doc:"Fraction of traffic nodes used as origins/destinations, in (0, 1].")

let pairs_of g ~seed ~fraction = Traffic.Gravity.random_node_pairs g ~seed ~fraction

let with_topology name f =
  match find_topology name with
  | Error e ->
      prerr_endline e;
      1
  | Ok t -> f t (Lazy.force t.graph)
