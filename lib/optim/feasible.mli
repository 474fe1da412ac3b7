(** Unsplittable-flow routing with capacity accounting: can a given active
    subgraph carry a traffic matrix?

    The underlying decision problem is NP-hard for unsplittable flows, so this
    is a deterministic constructive check (the standard approach in the
    energy-aware routing literature): flows are placed in decreasing volume
    order on congestion-aware shortest paths among arcs with sufficient
    residual capacity. A [Some] answer is a certificate of feasibility; [None]
    is conservative. *)

type t
(** Mutable placement state: active links, per-arc residual capacity and the
    committed path of every placed flow. *)

val create : ?margin:float -> ?state:Topo.State.t -> Topo.Graph.t -> t
(** Fresh placement over the given activity state (all-on by default).
    [margin] is the paper's safety margin [sm] (Section 4.5): flows may use at
    most [margin * capacity] of every arc (default 1.0).
    @raise Invalid_argument if [margin] is not positive (NaN included). *)

val graph : t -> Topo.Graph.t
val state : t -> Topo.State.t

val residual : t -> int -> float
(** Remaining usable capacity of an arc. *)

val load : t -> int -> float
(** Committed load on an arc. *)

val congestion_weight : t -> Topo.Graph.arc -> float
(** Routing weight: latency scaled by (1 + utilisation), so placement spreads
    load before saturating. *)

val place : t -> int -> int -> float -> Topo.Path.t option
(** [place t o d demand] routes the flow on the best feasible path and commits
    it. [None] when no active path has enough residual capacity. A flow for
    the pair must not already be placed. The search is
    [Routing.Dijkstra.shortest_path_congested] over the live link mask and
    this placement's residual and load arrays: the path
    [Routing.Dijkstra.shortest_path] would give with {!congestion_weight}
    and a filter keeping the arcs that are on and have at least
    [demand -. 1e-9] left.
    @raise Invalid_argument if the pair is already placed or [demand] is
    not positive (NaN included). *)

val place_on : t -> Topo.Path.t -> float -> bool
(** Commits a flow on an explicit path if the path is active and has residual
    capacity everywhere; returns false (and commits nothing) otherwise.
    @raise Invalid_argument if the path's pair is already placed or
    [demand] is not positive (NaN included). *)

val remove : t -> int -> int -> (Topo.Path.t * float) option
(** Withdraws the committed flow of a pair, restoring residual capacity. *)

val path_of : t -> int -> int -> Topo.Path.t option

val flows : t -> (int * int * float) list
(** Committed flows (pair and volume), in placement-independent order. *)

val crossing : t -> int list -> (int * int * float) list
(** [crossing t links] is every committed flow whose path traverses one of
    [links], in reroute order: volume descending, then origin, then
    destination. Placements live in a dense table with one slot per pair,
    assigned at the pair's first commit; the scan reads each placed path
    once against a mask of the links' arcs, with no closure and no table
    fold, so it costs one array read per arc of each path up to its first
    hit. The hits come out in slot order and are sorted only when that is
    not reroute order. In {!route_matrix} followed by moves that re-place
    each pair with its volume, as the power-down greedy does, it always
    is, so there is no sort.
    @raise Invalid_argument on an out-of-range link id. *)

val route_matrix : t -> Traffic.Matrix.t -> bool
(** Places every positive demand of the matrix (largest first), each as
    {!place} would. Returns false and leaves the placement in a
    partially-filled state if some flow cannot be placed — callers trying
    a change they may back out should run it inside {!trial}, or rebuild.
    The activity state is fixed for the whole call, so it builds one
    [Routing.Dijkstra.walk] of the link mask and hands it to every search:
    they then walk only the arcs that are on and do not lead into a leaf,
    with the same results. *)

val trial : t -> (unit -> bool) -> bool
(** [trial t body] runs [body], whose {!place}, {!place_on} and {!remove}
    calls are logged: each touched arc's residual and load before the write,
    and each touched pair's previous binding. If [body] returns [true] the
    log is dropped and its changes stay. If it returns [false] or raises,
    the log is replayed newest first, which puts back the exact floats and
    bindings [t] had when the trial opened (re-adding a demand would not be
    bit-identical), and the result or the exception is passed on. The
    activity state is not logged.
    @raise Invalid_argument if a trial is already open on [t]. *)
