(** Simple (loop-free) directed paths through a topology. *)

type t = { src : int; dst : int; arcs : int array }
(** Arcs in travel order; [arcs] is empty iff [src = dst]. *)

val of_arcs : Graph.t -> int list -> t
(** Builds a path from consecutive arc identifiers.
    @raise Invalid_argument if the arcs are not contiguous. *)

val hops : t -> int

val nodes : Graph.t -> t -> int array
(** Visited nodes, source first. *)

val latency : Graph.t -> t -> float
(** Sum of arc propagation latencies. *)

val links : Graph.t -> t -> int array
(** Undirected links traversed, in order. *)

val uses_link : Graph.t -> t -> int -> bool

val active : Graph.t -> State.t -> t -> bool
(** True iff every link of the path is active. *)

val equal : t -> t -> bool

val shares_link : Graph.t -> t -> t -> bool
(** True iff the two paths traverse at least one common undirected link. *)

val pp : Graph.t -> Format.formatter -> t -> unit
(** Renders as [A-B-C]. *)
