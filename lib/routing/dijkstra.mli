(** Single-source shortest paths with pluggable arc weights and an activity
    filter, the workhorse under every routing variant in the repository.

    Leaves (degree-1 nodes) never go through the heap, except for the
    [dst] of {!shortest_path}: a leaf's one in-arc is relaxed once, when its
    neighbour settles, and no path passes through a leaf without ending
    there. {!run} gives each leaf its final distance and parent arc at that
    relaxation; {!shortest_path} skips the arc into a leaf before calling
    [active] or [weight] on it. The Obs counters [routing_heap_pushes_total]
    and [routing_heap_pops_total] therefore count the source, the nodes of
    degree 2 or more, and a leaf [dst]; never another leaf. *)

type result = {
  dist : float array;  (** distance per node; [infinity] if unreachable *)
  prev_arc : int array;  (** incoming arc on the shortest-path tree; -1 at the source/unreachable *)
}

val run :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  unit ->
  result
(** Dijkstra from [src], building the full shortest-path tree. [weight]
    defaults to arc latency and must be non-negative (an [infinity] weight
    excludes the arc); [active] defaults to everything. Ties are broken
    deterministically by arc identifier, so equal inputs always give equal
    trees. A settled node is never re-parented, so zero-weight arcs cannot
    close a cycle in [prev_arc]. *)

val path_to : Topo.Graph.t -> result -> int -> Topo.Path.t option
(** Extracts the path to a destination from a {!run} result. [None] when
    unreachable; the query node must differ from the source. *)

val shortest_path :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  dst:int ->
  unit ->
  Topo.Path.t option
(** The path {!path_to} reads from [run ~src] for [dst], computed without
    the full tree: the search stops as soon as [dst] is popped. That is
    exact for every non-negative weight, because [dst] and every node on its
    path are settled by then and a settled node is never re-parented. [None]
    when [dst] is unreachable or equal to [src].

    The per-node arrays and the heap live in one workspace per domain,
    reused from call to call, so [weight] and [active] must not call
    [shortest_path] themselves (they would overwrite the search in
    progress). Both may be called any number of times per arc and should be
    pure. *)
