(* Shared test fixtures: the Figure 3/7 experiment set-up and small helpers.
   Linked into every test executable of this directory. *)

module G = Topo.Graph
module Path = Topo.Path

let all_pairs g =
  let nodes = G.traffic_nodes g in
  Array.to_list nodes
  |> List.concat_map (fun o ->
         Array.to_list nodes |> List.filter_map (fun d -> if o <> d then Some (o, d) else None))

(* Figure 3/7: A and C send to K. E-H-K is the common always-on path; the
   "upper" (A-D-G-K) and "lower" (C-F-J-K) paths are on-demand and double as
   failover. *)
let fig3_tables () =
  let ex = Topo.Example.make ~include_b:false () in
  let g = ex.Topo.Example.graph in
  let a = ex.Topo.Example.a and c = ex.Topo.Example.c and k = ex.Topo.Example.k in
  let arc i j = Option.get (G.find_arc g i j) in
  let via_middle o =
    Path.of_arcs g [ arc o ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.h; arc ex.Topo.Example.h k ]
  in
  let upper =
    Path.of_arcs g [ arc a ex.Topo.Example.d; arc ex.Topo.Example.d ex.Topo.Example.g; arc ex.Topo.Example.g k ]
  in
  let lower =
    Path.of_arcs g [ arc c ex.Topo.Example.f; arc ex.Topo.Example.f ex.Topo.Example.j; arc ex.Topo.Example.j k ]
  in
  let entries =
    [
      { Response.Tables.origin = a; dest = k; always_on = via_middle a; on_demand = [ upper ]; failover = None };
      { Response.Tables.origin = c; dest = k; always_on = via_middle c; on_demand = [ lower ]; failover = None };
    ]
  in
  (ex, Response.Tables.make g entries)

(* Table sets [Framework.precompute] has built while observability was
   on: a precompute memo miss moves it, a hit does not. *)
let precomputes () =
  Option.value (Obs.Registry.value Obs.Registry.default "core_precomputes_total") ~default:0.0

let link_between g i j = (G.arc g (Option.get (G.find_arc g i j))).G.link

(* Demand matrix for the Figure 7 workload: A and C each send 2.5 Mbit/s
   (5 flows of 10 packets/s) towards K. *)
let fig7_demand ex =
  let g = ex.Topo.Example.graph in
  let m = Traffic.Matrix.create (G.node_count g) in
  Traffic.Matrix.set m ex.Topo.Example.a ex.Topo.Example.k 2.5e6;
  Traffic.Matrix.set m ex.Topo.Example.c ex.Topo.Example.k 2.5e6;
  m

(* Tiny topologies used across the test suites. *)

let triangle ?(capacity = 1e9) ?(latency = 1e-3) () =
  let b = G.Builder.create () in
  let n0 = G.Builder.add_node b "n0" in
  let n1 = G.Builder.add_node b "n1" in
  let n2 = G.Builder.add_node b "n2" in
  ignore (G.Builder.add_link b ~capacity ~latency n0 n1);
  ignore (G.Builder.add_link b ~capacity ~latency n1 n2);
  ignore (G.Builder.add_link b ~capacity ~latency n0 n2);
  G.Builder.build b

let gig = Eutil.Units.to_float (Eutil.Units.gbps 1.0)

(* 4-cycle n0-n1-n2-n3 plus chord n0-n2; useful for path-diversity tests. *)
let square_with_diagonal () =
  let b = G.Builder.create () in
  let n = Array.init 4 (fun i -> G.Builder.add_node b (Printf.sprintf "n%d" i)) in
  let link x y = ignore (G.Builder.add_link b ~capacity:gig ~latency:1e-3 x y) in
  link n.(0) n.(1);
  link n.(1) n.(2);
  link n.(2) n.(3);
  link n.(3) n.(0);
  link n.(0) n.(2);
  G.Builder.build b

let line n_nodes =
  let b = G.Builder.create () in
  let n = Array.init n_nodes (fun i -> G.Builder.add_node b (Printf.sprintf "n%d" i)) in
  for i = 0 to n_nodes - 2 do
    ignore (G.Builder.add_link b ~capacity:gig ~latency:1e-3 n.(i) n.(i + 1))
  done;
  G.Builder.build b

(* A total order on paths, for counting distinct ones with sort_uniq. *)
let path_compare (a : Path.t) (b : Path.t) =
  Eutil.Order.triple Int.compare Int.compare (Eutil.Order.array Int.compare)
    (a.Path.src, a.Path.dst, a.Path.arcs) (b.Path.src, b.Path.dst, b.Path.arcs)
