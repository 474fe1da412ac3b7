(** Minimal network subset computation: which routers and links can be
    switched off while the network still carries a given traffic matrix
    (Section 2.2.1's optimisation problem).

    The solver is the power-down greedy with rerouting used throughout the
    energy-aware routing literature [15, 25]: starting from the fully powered
    network, elements are considered in decreasing power order and switched
    off whenever the affected flows can be rerouted on the remaining active
    subgraph. Whole routers (chassis + all ports) are tried before individual
    links, since the chassis dominates router power. The result is this
    repository's stand-in for the paper's CPLEX-computed "optimal" (see
    DESIGN.md); it is cross-validated against the exact MILP of
    {!Formulation} on small instances. *)

type result = {
  state : Topo.State.t;  (** active element set *)
  routing : (int * int, Topo.Path.t) Hashtbl.t;  (** path per routed pair *)
  arc_load : float array;  (** committed load per arc *)
  power_watts : float;
  power_percent : float;  (** relative to the fully powered network *)
}

type reroute = Feasible.t -> int -> int -> float -> Topo.Path.t option
(** Strategy for re-placing one displaced flow; must commit on success, and
    may commit only a path whose links are all on. {!power_down} relies on
    the second rule: before it tries a move, it checks with a union-find
    over the links still on that every placed pair stays connected, and it
    turns down a move that splits one without removing or rerouting
    anything. That is exact only because the split pair's reroute could not
    have succeeded. Both strategies below keep the rule: {!Feasible.place}
    searches only arcs that are on, and {!ksp_reroute} keeps only
    candidates that are {!Topo.Path.active}. *)

val dijkstra_reroute : reroute
(** Unrestricted congestion-aware shortest-path rerouting ({!Feasible.place}). *)

val ksp_reroute : (int * int, Topo.Path.t list) Hashtbl.t -> reroute
(** GreenTE-style rerouting restricted to precomputed k-shortest candidate
    paths per pair; the cheapest feasible candidate wins. *)

val power_down :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?pinned:(int -> bool) ->
  ?reroute:reroute ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  result option
(** Runs the greedy. [pinned l] protects link [l] from being switched off
    (used to keep already-deployed always-on elements powered when computing
    on-demand paths). [None] when even the full network cannot carry the
    matrix. Deterministic: ties are broken by element identifier. *)

val evaluate :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  Topo.State.t ->
  result option
(** Routes the matrix on a fixed activity state without modifying it —
    used to test whether a stored configuration still carries today's
    demand. The reported power is that of the given state. *)
