(* Flattened butterfly topology [Abts et al., ISCA 2010], the power-efficient
   datacenter alternative the paper cites ("our framework can identify
   energy-critical paths in an arbitrary topology, including the butterfly").

   A 2-dimensional k-ary flattened butterfly: k^2 routers arranged in a k x k
   grid, each fully connected to the other routers of its row and of its
   column, with c hosts ("concentration") per router. *)

type t = {
  k : int;
  concentration : int;
  graph : Graph.t;
  routers : int array;  (** router ids, row-major *)
  hosts : int array;  (** grouped by router *)
}

let make ?(concentration = 2) ?(capacity = 1e9) ?(latency = 50e-6) k =
  if k < 2 then invalid_arg "Butterfly.make: k >= 2";
  if concentration < 1 then invalid_arg "Butterfly.make: concentration >= 1";
  let b = Graph.Builder.create () in
  let routers =
    Array.init (k * k) (fun i ->
        Graph.Builder.add_node b ~role:Core (Printf.sprintf "r%d_%d" (i / k) (i mod k)))
  in
  let hosts =
    Array.init (k * k * concentration) (fun i ->
        let r = i / concentration in
        Graph.Builder.add_node b ~role:Host
          (Printf.sprintf "h%d_%d_%d" (r / k) (r mod k) (i mod concentration)))
  in
  Array.iteri
    (fun i h -> ignore (Graph.Builder.add_link b ~capacity ~latency h routers.(i / concentration)))
    hosts;
  (* Full mesh within every row and every column. *)
  for row = 0 to k - 1 do
    for a = 0 to k - 1 do
      for bcol = a + 1 to k - 1 do
        ignore
          (Graph.Builder.add_link b ~capacity ~latency routers.((row * k) + a) routers.((row * k) + bcol))
      done
    done
  done;
  for col = 0 to k - 1 do
    for a = 0 to k - 1 do
      for brow = a + 1 to k - 1 do
        ignore
          (Graph.Builder.add_link b ~capacity ~latency routers.((a * k) + col) routers.((brow * k) + col))
      done
    done
  done;
  { k; concentration; graph = Graph.Builder.build b; routers; hosts }
