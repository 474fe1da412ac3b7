(** Power-activity state of a topology: the X_i (router on) and Y_{i->j}
    (link active) decision variables of the paper's model, with the model's
    constraints maintained structurally — a router is on exactly when at least
    one of its links is active (constraints 1 and 3 of Section 2.2.1). *)

type t

val all_on : Graph.t -> t
(** Every link active. *)

val all_off : Graph.t -> t

val copy : t -> t

val set_link : Graph.t -> t -> int -> bool -> unit
(** Activate/deactivate a link (both arcs at once). *)

val link_on : t -> int -> bool

val link_mask : t -> bool array
(** Every link's {!link_on}, indexed by link: [(link_mask t).(l)] is
    [link_on t l]. A read-only view of the state itself, not a copy, for
    loops that would otherwise call {!link_on} per arc: it follows later
    {!set_link} calls, and callers must not mutate it. *)

val arc_on : Graph.t -> t -> int -> bool

val node_on : t -> int -> bool
(** True iff the node has at least one active incident link. *)

val active_links : t -> int
(** Number of active links. *)

val active_nodes : t -> int

val equal : t -> t -> bool
(** Equality of the active-link sets (the routing-configuration identity used
    for the recomputation-rate metric and Figure 2a). *)

val key : t -> string
(** Canonical hashable digest of the active-link set. *)

val pp : Graph.t -> Format.formatter -> t -> unit
