(* k-ary fat-tree topology [Al-Fares et al., SIGCOMM 2008], the datacenter
   topology of the paper's Figures 2b, 4 and 8b. k must be even. The network
   has (k/2)^2 core switches, k pods of k/2 aggregation and k/2 edge switches,
   and k/2 hosts per edge switch (k^3/4 hosts total). All links have the same
   capacity. *)

type t = {
  k : int;
  graph : Graph.t;
  hosts : int array;  (** host node ids, grouped by pod *)
  edges : int array;  (** edge switches, grouped by pod *)
  aggs : int array;  (** aggregation switches, grouped by pod *)
  cores : int array;
}

let core_count k = k * k / 4
let host_count k = k * k * k / 4

let make ?(capacity = 1e9) ?(latency = 50e-6) k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fattree.make: k must be even and >= 2";
  let b = Graph.Builder.create () in
  let half = k / 2 in
  let cores =
    Array.init (core_count k) (fun c -> Graph.Builder.add_node b ~role:Core (Printf.sprintf "c%d" c))
  in
  let aggs = Array.make (k * half) 0 in
  let edges = Array.make (k * half) 0 in
  let hosts = Array.make (host_count k) 0 in
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      aggs.((pod * half) + j) <-
        Graph.Builder.add_node b ~role:Aggregation (Printf.sprintf "a%d_%d" pod j);
      edges.((pod * half) + j) <-
        Graph.Builder.add_node b ~role:Edge (Printf.sprintf "e%d_%d" pod j)
    done;
    for j = 0 to half - 1 do
      for h = 0 to half - 1 do
        hosts.((pod * half * half) + (j * half) + h) <-
          Graph.Builder.add_node b ~role:Host (Printf.sprintf "h%d_%d_%d" pod j h)
      done
    done
  done;
  (* Host to edge links. *)
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      let e = edges.((pod * half) + j) in
      for h = 0 to half - 1 do
        ignore
          (Graph.Builder.add_link b ~capacity ~latency
             hosts.((pod * half * half) + (j * half) + h)
             e)
      done;
      (* Edge to every aggregation switch in the pod. *)
      for a = 0 to half - 1 do
        ignore (Graph.Builder.add_link b ~capacity ~latency e aggs.((pod * half) + a))
      done
    done;
    (* Aggregation j connects to cores [j*half, j*half + half). *)
    for j = 0 to half - 1 do
      let a = aggs.((pod * half) + j) in
      for c = 0 to half - 1 do
        ignore (Graph.Builder.add_link b ~capacity ~latency a cores.((j * half) + c))
      done
    done
  done;
  { k; graph = Graph.Builder.build b; hosts; edges; aggs; cores }

(* Host index (position in [hosts]) helpers used by traffic generators. *)
let host t i = t.hosts.(i)
let n_hosts t = Array.length t.hosts
