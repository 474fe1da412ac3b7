(** Deterministic, seeded fault-scenario generation.

    A {!spec} describes stochastic failure processes — independent link
    failures, node (chassis) failures that take every incident link down
    together, correlated SRLG groups, a flapping link, demand surges — and
    {!events} compiles them into a reproducible {!Netsim.Sim.event}
    schedule. Equal seeds give byte-identical schedules; each process draws
    from its own {!Eutil.Prng} stream split off the seed in a fixed order,
    so enabling one process never perturbs another's draws.

    Overlapping down-times for a link (say a node failure landing on a link
    that is already failed) are merged into maximal down intervals before
    emission, so the schedule never fails an already-failed link or repairs
    a link a concurrent fault still holds down. *)

type process = {
  mtbf : float;  (** mean time between failures, seconds (exponential) *)
  mttr : float;  (** mean time to repair, seconds (exponential) *)
}

type flap = {
  flap_link : int option;  (** flapping link; None picks one from the seed *)
  flap_period : float;  (** seconds per fail/repair cycle *)
  flap_cycles : int;
  flap_start : float;
}

type surge = {
  surge_at : float;
  surge_factor : float;  (** demand multiplier during the surge *)
  surge_duration : float;
}

type spec = {
  seed : int;
  duration : float;
  warmup : float;  (** no faults before this time *)
  link_faults : process option;  (** independent per-link process *)
  node_faults : process option;
      (** per-node process; a node failure fails all incident links together
          (chassis loss) *)
  srlgs : int list list;  (** shared-risk link groups, each failing as one *)
  srlg_faults : process option;  (** per-group process; ignored without groups *)
  flapping : flap option;
  surges : surge list;
}

val default : spec
(** 10 s scenario, seed 0, link faults only (mtbf 3 s, mttr 0.5 s). *)

val events : spec -> Topo.Graph.t -> base:Traffic.Matrix.t -> Netsim.Sim.event list
(** Compiles the spec against a topology into a schedule, sorted by time
    (repairs before failures at equal times, demand changes first). The
    schedule starts with [Set_demand (0., base)]; surges scale [base].
    Repairs falling beyond [duration] are omitted. *)

val random_srlgs :
  Topo.Graph.t -> Eutil.Prng.t -> groups:int -> size:int -> int list list
(** [groups] disjoint link groups of (up to) [size] links drawn without
    replacement — a stand-in for real shared-conduit data.
    @raise Invalid_argument unless [groups] and [size] are positive. *)
