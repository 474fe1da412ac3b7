(** Suurballe's algorithm: the minimum-total-weight pair of link-disjoint
    paths between two nodes.

    {!Disjoint.max_disjoint} finds the best failover for a {e fixed} primary
    path; Suurballe instead optimises the pair jointly, which can protect
    pairs the greedy combination cannot (the classic trap: the shortest
    primary path uses the only cut link, making any disjoint failover
    impossible even though a disjoint pair exists). An alternative
    failover-table strategy in the spirit of [Kwong et al., CoNEXT 2008]
    cited by the paper: neither the tables nor the bench (its failover
    ablation included) call it; only the extension tests do. *)

val disjoint_pair :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  dst:int ->
  unit ->
  (Topo.Path.t * Topo.Path.t) option
(** The link-disjoint pair with minimum total weight (latency by default),
    shorter path first. [None] when no two link-disjoint paths exist. *)
