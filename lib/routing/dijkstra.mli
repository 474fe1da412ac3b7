(** Single-source shortest paths with pluggable arc weights and an activity
    filter, the workhorse under every routing variant in the repository.

    One search loop serves {!run}, {!shortest_path} and
    {!shortest_path_congested}. Its queue is an indexed binary heap that
    holds each reached, unsettled node once, keyed by its distance and then
    by the order of the strict decreases that set it; a decrease sifts the
    node up in place, and a tie only moves its parent arc. Nodes settle in
    the order a lazy heap with FIFO ties would settle them, so every
    distance bit and parent arc is the same. The Obs counters
    [routing_heap_pushes_total] and [routing_heap_pops_total] count
    insertions and removals: a node is inserted at most once per search and
    there are no stale entries.

    Leaves (degree-1 nodes) never enter the queue, except for the [dst] of
    a target-stopped search: a leaf's one in-arc is relaxed once, when its
    neighbour settles, and no path passes through a leaf without ending
    there. {!run} gives each leaf its final distance and parent arc at that
    relaxation; the target-stopped searches skip the arc into a leaf before
    weighing it. The two counters therefore count the source, the nodes of
    degree 2 or more, and a leaf [dst]; never another leaf. *)

type walk
(** A walk set: for every node, the out-arcs whose link is on and whose
    head is not a leaf, in {!Topo.Graph.adjacency} order. Those are the
    only arcs that can write anything in a target-stopped search under
    that link mask, so {!shortest_path_congested} given one walks them
    and nothing else (except at the one neighbour of a leaf [dst], which
    walks its full adjacency), and returns the same path, with the same
    queue traffic, as without it. {!shortest_path_congested} is the only
    entry point that takes one; {!run} and {!shortest_path} walk every
    out-arc. *)

val walk : Topo.Graph.t -> on:bool array -> walk
(** The walk set of a graph under an on-link mask ([on] indexed by link).
    It is valid for that graph while [on] holds the values it had here:
    built once for a link mask that does not change, it can serve any
    number of searches. *)

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

    The per-node arrays and the queue live in one workspace per domain,
    reused from call to call: a call resets only the nodes the previous
    call on that domain queued, and after a call that raised, all of them.
    [weight] and [active] must therefore not call [shortest_path]
    themselves (they would overwrite the search in progress). Both may be
    called any number of times per arc and should be pure; if one raises,
    the exception is passed on and the next call is unaffected. *)

val shortest_path_congested :
  ?walk:walk ->
  Topo.Graph.t ->
  on:bool array ->
  residual:float array ->
  load:float array ->
  demand:float ->
  src:int ->
  dst:int ->
  Topo.Path.t option
(** {!shortest_path} with the congestion weight and capacity filter of
    [Optim.Feasible.place], read from arrays instead of closures. An arc [a]
    of link [l] is active when [on.(l)] holds and
    [residual.(a) >= demand -. 1e-9], and weighs
    [latency *. (1.0 +. (3.0 *. (load.(a) /. capacity)))]. These are the
    closures' expressions, so the result is the one {!shortest_path} gives
    with them, to the bit, without a call or a boxed float per arc. [on]
    is indexed by link and [residual] and [load] by arc; the search only
    reads them. Same workspace as {!shortest_path}.

    [walk], when given, must be [walk g ~on] for this [g] and the current
    contents of [on]: the search then walks it instead of every out-arc.
    The result, the distances and the queue counters are the same.
    @raise Invalid_argument if [walk] was built for a graph with another
    node count. *)
