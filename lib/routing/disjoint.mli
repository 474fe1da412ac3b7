(** Failover-path computation: paths maximally disjoint from a given set of
    paths, per Section 4.3 of the paper ("construct the failover paths in a
    way that all paths combined are not vulnerable to a single link failure;
    where impossible, find the set least likely to be all affected"). *)

val avoiding :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  avoid:int list ->
  src:int ->
  dst:int ->
  unit ->
  Topo.Path.t option
(** Shortest path that strictly avoids the given undirected links, or [None]
    if removing them disconnects the pair. *)

val max_disjoint :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  protect:Topo.Path.t list ->
  src:int ->
  dst:int ->
  unit ->
  Topo.Path.t option
(** A path minimising (number of links shared with [protect], then weight):
    fully disjoint when the topology allows it, otherwise least-overlapping.
    Implemented by weighting shared links with a large additive penalty that
    dominates any real path weight. *)
