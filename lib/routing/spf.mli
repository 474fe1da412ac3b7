(** OSPF shortest-path-first routing with the Cisco-recommended link weights
    (inverse of capacity), the paper's OSPF-InvCap baseline. *)

val invcap : Topo.Graph.t -> Topo.Graph.arc -> float
(** InvCap weight: reference bandwidth (the largest capacity in the topology)
    divided by the arc capacity, so a 10G link weighs 1. *)

val routes :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  pairs:(int * int) list ->
  unit ->
  (int * int, Topo.Path.t) Hashtbl.t
(** InvCap routes for the given origin-destination pairs. Runs one Dijkstra
    per distinct origin. Pairs with unreachable destinations are absent from
    the table. *)

val delay_bound_table :
  Topo.Graph.t -> pairs:(int * int) list -> beta:float -> (int * int, float) Hashtbl.t
(** Per-pair propagation-delay bounds [(1 + beta) * delay_OSPF(o, d)], the
    right-hand side of the paper's constraint (4) used by REsPoNse-lat. *)
