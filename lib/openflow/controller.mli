(** The REsPoNse OpenFlow controller: compiles the installed energy-critical
    paths and the current REsPoNseTE traffic splits into per-switch flow
    tables. Recompilation is cheap (it touches only the affected pairs'
    entries), which is exactly the paper's point: the expensive path
    computation happened offline, the controller only re-weights among
    preinstalled choices. *)

type t

val create : Response.Tables.t -> t

val graph : t -> Topo.Graph.t

val program : t -> splits:(int -> int -> float array) -> unit
(** (Re)compiles every pair's entries from the given split over its paths
    (activation order, as in {!Response.Te.split}). Paths with zero weight
    are omitted. *)

val table_of : t -> int -> Flowtable.t
(** The flow table of a node. *)

val tables_installed : t -> int
(** Total number of entries across all switches (the TCAM footprint). *)
