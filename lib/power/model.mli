(** Power models for network elements, after Section 2.2.1 and the
    "Power consumption model" paragraph of Section 5.1.

    The network power under an activity state is
    [sum_i X_i (Pc(i) + sum_{i->j} Y_{i->j} (Pl(i->j) + Pa(i->j)))]:
    a powered router pays its chassis cost, and every active link pays the
    port cost at both ends plus the optical amplifier cost. An element whose
    traffic has been removed enters a low-power state of negligible
    consumption [29].

    Every power value is a typed {!Eutil.Units.watts} quantity; capacities
    entering {!linecard_watts} are typed bit/s. Unit confusion is a compile
    error, not a corrupted figure. *)

type t = {
  description : string;
  chassis : int -> Eutil.Units.watts Eutil.Units.q;
      (** Pc(i) for node [i] when powered *)
  port : Topo.Graph.arc -> Eutil.Units.watts Eutil.Units.q;
      (** Pl(i->j) for the port at [arc.src] *)
  amplifier : int -> Eutil.Units.watts Eutil.Units.q;
      (** Pa for the undirected link *)
}

val linecard_presets : (string * Eutil.Units.bps Eutil.Units.q * Eutil.Units.watts Eutil.Units.q) array
(** The shared line-card preset table [(name, min capacity, power)], ordered
    by descending rate: OC192 (>= 9 Gbit/s, 174 W), OC48 (>= 2 Gbit/s,
    140 W), OC12 (>= 500 Mbit/s, 80 W). Below the table, {!oc3_watts}. *)

val oc3_watts : Eutil.Units.watts Eutil.Units.q
(** The OC3 floor of the preset table, 60 W. *)

val linecard_watts : Eutil.Units.bps Eutil.Units.q -> Eutil.Units.watts Eutil.Units.q
(** Line-card power for an interface of the given rate, from
    {!linecard_presets}. *)

val cisco12000 : Topo.Graph.t -> t
(** Representative current hardware: Cisco 12000-series configuration with a
    600 W chassis (~60 % of the router budget) and the line-card preset
    table (OC3..OC192); 1.2 W optical repeaters every 80 km, derived from
    the link's propagation latency. *)

val alternative_hw : Topo.Graph.t -> t
(** The paper's forward-looking model: the always-on (chassis) power budget
    reduced by a factor of 10. *)

val commodity_dc : ?peak:Eutil.Units.watts Eutil.Units.q -> Topo.Graph.t -> t
(** Commodity datacenter switches (fat-tree experiments): fixed overheads of
    fans, switch chips and transceivers amount to ~90 % of the peak budget
    ([peak], default 150 W) even with no traffic; the remainder is spread over
    the ports. Hosts consume no network power. *)

val link_power : t -> Topo.Graph.t -> int -> Eutil.Units.watts Eutil.Units.q
(** Power of one active undirected link: both ports plus amplifiers. *)

val node_power : t -> Topo.Graph.t -> int -> Eutil.Units.watts Eutil.Units.q
(** Chassis power of a node when powered (0 for hosts). *)

val total : t -> Topo.Graph.t -> Topo.State.t -> Eutil.Units.watts Eutil.Units.q
(** Network power under the given activity state. *)

val full : t -> Topo.Graph.t -> Eutil.Units.watts Eutil.Units.q
(** Power with every element active — the "original power" baseline of the
    paper's figures. *)

val percent_of_full : t -> Topo.Graph.t -> Topo.State.t -> float
(** [100 * total / full], the y-axis of Figures 4, 5, 6 and 8a (0 when
    [full] is 0). Plain float: a display quantity. It is the [percent] of
    {!figures}, computed the same way. *)

type figures = {
  total : Eutil.Units.watts Eutil.Units.q;  (** {!total} of the state *)
  full : Eutil.Units.watts Eutil.Units.q;  (** {!full} of the graph *)
  percent : float;  (** {!percent_of_full} of the state *)
}

val figures : t -> Topo.Graph.t -> Topo.State.t -> figures
(** A state's power figures in one pass over the nodes and one over the
    links, with no all-on state built: every element's power is computed
    once and added to [full], and to [total] when the element is on. Each
    sum runs in {!total}'s order (nodes, then links, by identifier, from
    zero), so both are the bits {!total} and {!full} give, and [percent]
    the bits of [100 * total / full]. With Obs on, it sets the
    [power_nodes_awake], [power_links_awake] and [power_links_asleep]
    gauges from the state. *)

val state_of_loads : Topo.Graph.t -> (int -> float) -> Topo.State.t
(** Activity state induced by per-link carried load (bit/s): a link is active
    iff it carries strictly positive traffic (sleeping otherwise), and
    routers follow constraint (3). *)
