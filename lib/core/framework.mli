(** End-to-end REsPoNse precomputation and quasi-static evaluation.

    [precompute] runs the whole offline pipeline of Section 4 — always-on,
    on-demand (any variant) and failover paths — and returns the installed
    {!Tables}. [evaluate] then emulates the steady state the online TE
    component (REsPoNseTE) reaches for a given traffic matrix: traffic is
    aggregated on the always-on paths while the utilisation target holds, and
    spills to on-demand paths in activation order otherwise; elements carrying
    no traffic sleep. This is how the power curves of Figures 4, 5 and 6 are
    produced (the time-domain behaviour is in {!Netsim}). *)

type variant = On_demand.variant =
  | Solver of Traffic.Matrix.t  (** baseline REsPoNse (peak-TM solver) *)
  | Stress of float  (** demand-oblivious, stress-factor exclusion *)
  | Ospf  (** REsPoNse-ospf *)
  | Heuristic of Traffic.Matrix.t  (** REsPoNse-heuristic (GreenTE) *)

type config = {
  margin : Eutil.Units.ratio Eutil.Units.q;  (** safety margin sm on link capacities *)
  n_paths : int;  (** N: total energy-critical paths per pair (>= 2) *)
  latency_beta : float option;  (** REsPoNse-lat bound, e.g. Some 0.25 *)
  always_on_mode : Always_on.mode;
  on_demand : variant;
}

val default : config
(** Demand-oblivious: epsilon always-on, stress-factor (0.2) on-demand,
    N = 3, margin 1.0, no latency bound. *)

val install_checks : bool Atomic.t
(** When true (the default, unless the environment sets [RESPONSE_CHECKS=0]),
    {!precompute} runs the {!Check.Invariant.check_tables} validators on the
    freshly built tables and raises [Invalid_argument] on any error-severity
    finding (path validity, coverage, duplicate installs). Warnings, such as
    a maximally- but not fully-disjoint failover, are not fatal. *)

val table_findings :
  Topo.Graph.t -> pairs:(int * int) list -> Tables.t -> Check.Finding.t list
(** Every {!Check.Invariant.check_tables} finding for [tables] over [pairs],
    errors and warnings alike: what {!install_checks} validates, for callers
    that report rather than raise. *)

val precompute :
  ?config:config -> ?jobs:int -> Topo.Graph.t -> Power.Model.t -> pairs:(int * int) list -> Tables.t
(** Builds the full table set for the given pairs. [jobs] (default 1) fans
    the per-pair failover stage out over that many domains (see
    {!Failover.compute}); the resulting tables are identical for any
    [jobs].
    @raise Invalid_argument if [n_paths < 2], if the always-on demands are
    infeasible on the full network, or (with {!install_checks} on) on any
    error-severity invariant finding. *)

val precompute_cached :
  ?config:config -> ?jobs:int -> Topo.Graph.t -> Power.Model.t -> pairs:(int * int) list -> Tables.t
(** {!precompute} behind a bounded {!Eutil.Memo} cache (32 entries, LRU),
    keyed by exact digests of every input the pipeline reads: the
    {!Topo.Graph.signature}, the power model evaluated over the topology,
    the pair list, and the config including the
    {!Traffic.Matrix.signature} of any embedded matrix. [jobs] is not part
    of the key — tables are identical for any fan-out. Certified memo-safe
    by the [memo-unsafe] rule of [respctl analyze], which reads the [cost]
    section of [check/analyze.json]; a raising computation (infeasible
    demands, invariant violation) is never cached.

    The returned tables may reference the structurally-identical graph of
    an earlier call rather than [g] itself; all identifiers coincide by the
    signature contract.
    @raise Invalid_argument as {!precompute}. *)

val cache_clear : unit -> unit
(** Drops every cached table set. *)

type evaluation = {
  state : Topo.State.t;  (** elements carrying traffic (the rest sleep) *)
  power_watts : float;
  power_percent : float;
  max_utilization : float;
  levels_activated : int;  (** deepest on-demand level in use (0 = none) *)
  congested : (int * int) list;  (** pairs whose best path exceeds capacity *)
}

val evaluate :
  ?threshold:Eutil.Units.ratio Eutil.Units.q ->
  Tables.t -> Power.Model.t -> Traffic.Matrix.t -> evaluation
(** [threshold] is the ISP's link-utilisation target (default 0.9): a flow
    moves to the next path level when placing it would push some link of the
    current level beyond it. *)

val loads :
  ?threshold:Eutil.Units.ratio Eutil.Units.q -> Tables.t -> Traffic.Matrix.t -> float array
(** Per-arc offered load of the steady state {!evaluate} reaches — e.g. the
    background utilisation an application workload experiences on top of the
    consolidated traffic. *)

val carried_fraction :
  ?threshold:Eutil.Units.ratio Eutil.Units.q ->
  Tables.t -> Power.Model.t -> base:Traffic.Matrix.t -> max_level:int -> float
(** Largest multiple of [base] that the paths up to [max_level] can carry
    within the utilisation threshold (bisection) — used for the paper's claim
    that always-on paths alone carry about 50 % of the OSPF-carriable
    volume. *)
