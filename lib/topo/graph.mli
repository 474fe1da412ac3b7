(** Network topology: a set of routers/switches connected by bidirectional
    links, each link materialised as a pair of directed arcs.

    This mirrors the model of Section 2.2.1 of the paper: a node set [N], an
    arc set [A] where every link (i,j) is a pair of opposite arcs sharing one
    undirected link identifier (a link "cannot be half-powered"), annotated
    with capacity [C] (bit/s) and propagation latency (seconds). *)

type role =
  | Host  (** datacenter end host; consumes no network power *)
  | Edge  (** fat-tree edge (ToR) switch *)
  | Aggregation  (** fat-tree aggregation switch *)
  | Core  (** fat-tree core switch, or ISP core router *)
  | Pop  (** ISP point of presence (flat PoP-level topologies) *)
  | Backbone  (** hierarchical ISP backbone router *)
  | Metro  (** hierarchical ISP metro router *)
  | Feeder  (** hierarchical ISP feeder node (always powered) *)

val role_to_string : role -> string

type arc = {
  id : int;  (** arc identifier, dense in [0, arc_count) *)
  src : int;  (** origin node *)
  dst : int;  (** destination node *)
  capacity : float;  (** bit/s *)
  latency : float;  (** propagation delay, seconds *)
  rev : int;  (** id of the opposite arc of the same link *)
  link : int;  (** undirected link identifier, dense in [0, link_count) *)
}

type t

val node_count : t -> int
val arc_count : t -> int
val link_count : t -> int

val name : t -> int -> string
(** Human-readable node name. *)

val role : t -> int -> role

val node_of_name : t -> string -> int
(** Inverse of {!name}.
    @raise Invalid_argument naming the unknown node if absent. *)

val arc : t -> int -> arc
(** Arc by identifier. *)

val out_arcs : t -> int -> int array
(** Identifiers of arcs leaving the node. Do not mutate. *)

val in_arcs : t -> int -> int array
(** Identifiers of arcs entering the node. Do not mutate. *)

val adjacency : t -> int array array
(** Every node's {!out_arcs}, indexed by node: [(adjacency g).(n)] is
    [out_arcs g n]. For loops that would otherwise call {!out_arcs} and
    {!degree} per arc. Do not mutate. *)

val arcs : t -> arc array
(** Every arc, indexed by identifier: [(arcs g).(a)] is [arc g a]. Do not
    mutate. *)

val degree : t -> int -> int
(** Number of links incident to the node. *)

val link_endpoints : t -> int -> int * int
(** Endpoints of an undirected link, in arc order. *)

val arcs_of_link : t -> int -> int * int
(** The two opposite arcs of a link: link [l] is always laid out as arc
    [2l], from the first to the second of its {!link_endpoints}, and arc
    [2l + 1] back, so this is [(2 * l, 2 * l + 1)].
    @raise Invalid_argument on an out-of-range link id. *)

val link_capacity : t -> int -> float
(** Capacity of the forward arc of the link. *)

val link_latency : t -> int -> float

val find_arc : t -> int -> int -> int option
(** [find_arc g i j] is the arc from [i] to [j], if the link exists. *)

val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a
val fold_arcs : t -> init:'a -> f:('a -> arc -> 'a) -> 'a
val fold_links : t -> init:'a -> f:('a -> int -> 'a) -> 'a
val iter_links : t -> f:(int -> unit) -> unit

val nodes_with_role : t -> role -> int list
(** Nodes having exactly the given role, in identifier order. *)

val traffic_nodes : t -> int array
(** Nodes that may originate or terminate demand: hosts when the topology has
    hosts, every non-feeder node otherwise. *)

val signature : t -> string
(** Structural digest of the topology: node names and roles plus every arc's
    endpoints, link id, capacity and latency (hex float, so the digest is
    exact). Two graphs with equal signatures are interchangeable for any
    routing or power computation — the key contract {!Response.Framework}
    relies on for cached precomputation. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (node/link counts). *)

(** Mutable construction of a topology. *)
module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : t -> ?role:role -> string -> int
  (** Registers a node and returns its identifier. Names must be unique. *)

  val add_link : t -> ?capacity_back:float -> capacity:float -> latency:float -> int -> int -> int
  (** [add_link b ~capacity ~latency i j] adds link i-j (two arcs) and returns
      the link identifier. [capacity_back] overrides the j->i direction for
      asymmetric links; it defaults to [capacity]. Self-loops and duplicate
      links are rejected.
      @raise Invalid_argument on a self-loop, an unknown node, a duplicate
      link, or a latency or capacity (either direction) that is not finite
      and positive. *)

  val build : t -> graph
end
