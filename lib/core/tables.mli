(** REsPoNse routing tables: for every origin-destination pair, one always-on
    path, a small ordered set of on-demand paths, and a failover path
    (Section 4). These are the "energy-critical paths" installed once into
    the network; the online component only ever chooses among them. *)

type entry = {
  origin : int;
  dest : int;
  always_on : Topo.Path.t;
  on_demand : Topo.Path.t list;  (** in activation order, no duplicates *)
  failover : Topo.Path.t option;
}

type t

val make : Topo.Graph.t -> entry list -> t
(** Builds the table set; entries must be unique per pair, and every path must
    connect its pair.
    @raise Invalid_argument on a duplicate pair or a path that does not
    connect its endpoints. *)

val graph : t -> Topo.Graph.t
val find : t -> int -> int -> entry option
val pairs : t -> (int * int) list
val entries : t -> entry list

val paths : entry -> Topo.Path.t array
(** All paths of the entry in activation order: always-on first, then
    on-demand, then the failover. *)

val n_tables : t -> int
(** The N of the paper: the maximum number of distinct paths any pair holds
    (e.g. 3 = always-on + on-demand + failover). *)

val always_on_state : t -> Topo.State.t
(** Activity state with exactly the links of the always-on paths powered. *)

val pp : Format.formatter -> t -> unit
