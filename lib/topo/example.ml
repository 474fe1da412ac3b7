(* The example topology of the paper's Figure 3 (also the Click testbed of
   Figure 7, which excludes router B): sources A, B, C reach K over a common
   always-on path E-H-K, while D-G-K ("upper") and F-J-K ("lower") serve as
   on-demand/failover paths. *)

type t = {
  graph : Graph.t;
  a : int;
  b : int option;
  c : int;
  d : int;
  e : int;
  f : int;
  g : int;
  h : int;
  j : int;
  k : int;
}

let make ?(include_b = true) ?(capacity = 10e6) ?(latency = 16.67e-3) () =
  let bl = Graph.Builder.create () in
  let add name = Graph.Builder.add_node bl ~role:Pop name in
  let a = add "A" in
  let b = if include_b then Some (add "B") else None in
  let c = add "C" in
  let d = add "D" in
  let e = add "E" in
  let f = add "F" in
  let g = add "G" in
  let h = add "H" in
  let j = add "J" in
  let k = add "K" in
  let link x y = ignore (Graph.Builder.add_link bl ~capacity ~latency x y) in
  link a d;
  link a e;
  (match b with Some b -> link b e | None -> ());
  link c e;
  link c f;
  link d g;
  link e h;
  link f j;
  link g k;
  link h k;
  link j k;
  { graph = Graph.Builder.build bl; a; b; c; d; e; f; g; h; j; k }
