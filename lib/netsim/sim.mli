(** Flow-level discrete-event network simulator — the stand-in for the
    paper's ns-2 simulations, Click testbed and ModelNet emulations
    (Section 5.3). It models:

    - REsPoNse routing tables with a REsPoNseTE agent per origin
      ({!Response.Te}), probing its own paths every T seconds;
    - link sleep states with configurable wake-up latency (10 ms for the
      Click experiments, 5 s for the ns-2 ones);
    - idle links falling asleep after carrying no traffic for a while;
    - link failures with a detection delay before agents react;
    - graceful degradation: a pair with no usable installed path escalates
      through bounded panic wake retries to a dynamic shortest-usable-path
      fallback ({!Response.Te.Use_fallback}); wake requests on failed links
      are rejected and counted, and unserved demand is accounted as loss;
    - fluid rate allocation: a flow's achieved rate is its demand scaled
      down by the worst oversubscription along its path, and traffic whose
      path is waking up falls back temporarily to the lowest active path
      (the "reserve capacity from always-on paths" behaviour of
      Section 4.5);
    - power integration from the element activity states.

    Rates are kept in a per-run ledger rather than rebuilt: each table
    pair caches its placements, wake requests and achieved rate, and a
    state change marks only the pairs it can affect (a split or fallback
    change marks the probed pair, a failure or sleep/wake on a link the
    pairs whose installed paths cross it, a demand change every pair). A
    rate computation re-decides the marked pairs and every pair routed
    over a granted dynamic fallback. Only if a placement moved does it
    re-fold all cached placements, in the order a from-scratch rebuild
    would sum them, so every rate is bit-identical to one (DESIGN.md §3,
    item 4).

    Packet-level artefacts (queueing jitter, loss bursts) are out of scope;
    the quantities the paper reports — rates over time, activation delays,
    power — are flow-level. *)

type config = {
  te : Response.Te.config;
  wake_time : float;  (** seconds for a sleeping link to become active *)
  failure_detection : float;  (** failure-to-agent-reaction delay, seconds *)
  idle_timeout : float;  (** an active link with no traffic sleeps after this *)
  sample_interval : float;  (** statistics sampling period *)
  te_start : float;  (** probes are inert before this time (Figure 7) *)
  transition_energy : float;
      (** joules consumed per link sleep/wake cycle — "frequent state
          switching consumes a significant amount of energy as well"
          (Section 2.1.1). Default 0. *)
}

val default_config : config

type event =
  | Set_demand of float * Traffic.Matrix.t  (** demand becomes the matrix at the time *)
  | Fail_link of float * int
  | Repair_link of float * int

type sample = {
  time : float;
  power_watts : float;
  power_percent : float;
  demand_total : float;
  rate_total : float;  (** achieved aggregate sending rate *)
  pair_rates : ((int * int) * float) list;
      (** achieved rate per pair carrying demand, in (origin, destination)
          order *)
  link_rates : float array;  (** achieved load per undirected link (max direction) *)
  links_active : int;
}

type result = {
  samples : sample array;
  mean_power_percent : float;  (** time-averaged over the run *)
  delivered_fraction : float;  (** total delivered bits / total demanded bits *)
  wake_count : int;  (** link wake transitions over the run *)
  sleep_count : int;  (** link transitions into the sleeping state *)
  energy_joules : float;
      (** integrated element power plus transition energy — the quantity an
          aggressive idle timeout trades against (many transitions) *)
  rejected_wake_count : int;
      (** wake requests the network refused because the link was failed;
          each refusal immediately re-probes the affected agents *)
  fallback_count : int;
      (** dynamic shortest-usable-path fallback routes computed for pairs
          whose installed paths were all unusable *)
  offered_bits : float;  (** integrated demand over the run *)
  delivered_bits : float;  (** integrated achieved rate *)
  lost_bits : float;
      (** [offered_bits - delivered_bits], exactly — disconnection and
          congestion show up here as measured loss, never silently *)
}

val run :
  ?config:config ->
  ?initial_splits:((int * int) * float array) list ->
  tables:Response.Tables.t ->
  power:Power.Model.t ->
  events:event list ->
  duration:float ->
  unit ->
  result
(** Runs the scenario. Links start active if any pair's initial split uses
    them (default: the always-on footprint) and asleep otherwise; demand is
    zero until the first [Set_demand].
    @raise Invalid_argument if [initial_splits] names a pair twice, names a
    pair the tables do not hold, or gives a split whose length differs
    from the pair's path count. *)
