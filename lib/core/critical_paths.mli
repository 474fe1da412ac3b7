(** Energy-critical path identification (Section 3.3): rank, for every
    origin-destination pair, the paths an optimal (per-interval) routing
    would have used, by the amount of traffic each carried over the trace.
    A handful of recurring paths carries almost all traffic — those are the
    energy-critical paths REsPoNse installs. *)

type t
(** Accumulated ranking. *)

val create : Topo.Graph.t -> t

val observe : t -> (int * int, Topo.Path.t) Hashtbl.t -> Traffic.Matrix.t -> unit
(** Accounts one interval: each pair's routed path is credited with the
    pair's demand in the interval. *)

val coverage : t -> top:int -> float
(** Percentage (0..100) of all observed traffic that falls on each pair's
    [top] heaviest paths — the y-axis of Figure 2b.
    @raise Invalid_argument if [top] is negative. *)

val coverage_curve : t -> max:int -> (int * float) list
(** [(x, coverage ~top:x)] for x = 1..max. *)

val paths_of : t -> int -> int -> (Topo.Path.t * float) list
(** A pair's observed paths with accumulated traffic, heaviest first. *)
