(** ElasticTree-style topology-aware heuristic for fat-trees [Heller et al.,
    NSDI 2010]: exploit the regular structure to pick the number of active
    aggregation and core switches directly from the demand, in linear time,
    instead of searching the whole subset space. Only applicable to fat-trees
    (the paper makes the same remark). *)

val minimal_subset :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  Topo.Fattree.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  Minimal.result option
(** Computes the needed aggregation-switch count per pod and core-switch
    count from pod-level traffic totals, activates the leftmost such subset,
    and verifies by routing; capacity is escalated until the placement
    succeeds. [None] if even the full fat-tree cannot carry the matrix.
    @raise Invalid_argument if the fat-tree's [k] is not even and at least
    2, if its link capacity (scaled by [margin]) is not positive, if a
    flow of the matrix starts or ends at a core switch (or any node that
    is not a host, edge or aggregation switch of its arrays; the message
    names it), or if a host-edge, edge-aggregation or aggregation-core
    link that its [k] and node arrays imply is missing from its graph (the
    message names both ends). *)
