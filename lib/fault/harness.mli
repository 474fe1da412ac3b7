(** Chaos/resilience harness: sweeps seeded {!Scenario} schedules through
    {!Netsim.Sim} and aggregates availability, delivered/lost traffic
    (conservation-checked), per-pair recovery times and the sleep ratio
    under faults. Equal base seeds give byte-identical {!to_json} output,
    which is what the [@chaos] golden tests pin down. *)

type trial = {
  tr_seed : int;
  tr_offered_bits : float;
  tr_delivered_bits : float;
  tr_lost_bits : float;
  tr_availability : float;
      (** served pair-samples / demand-carrying pair-samples; a pair-sample
          is served when its rate reaches [threshold] of its demand *)
  tr_pair_samples : int;  (** demand-carrying pair-samples observed *)
  tr_recoveries : float array;
      (** per-pair outage durations, seconds; an outage still open at the
          end of the run is counted with its censored duration *)
  tr_sleep_ratio : float;  (** mean fraction of links asleep across samples *)
  tr_mean_power_percent : float;
  tr_wake_count : int;
  tr_sleep_count : int;
  tr_rejected_wakes : int;
  tr_fallback_routes : int;
}

type report = {
  base_seed : int;
  trials : trial array;  (** trial k runs the spec with seed [base_seed + k] *)
  availability : float;  (** pooled over all trials *)
  delivered_fraction : float;
  lost_fraction : float;
  offered_bits : float;
  delivered_bits : float;
  lost_bits : float;
  conservation_residual_bits : float;
      (** max over trials of |offered - delivered - lost|; {!run} raises if
          it exceeds a relative 1e-6 tolerance *)
  outages : int;
  recovery_p50 : float;  (** seconds; 0 when no outage was observed *)
  recovery_p99 : float;
  recovery_max : float;
  sleep_ratio : float;
  mean_power_percent : float;
  rejected_wakes : int;
  fallback_routes : int;
}

val run_trial :
  config:Netsim.Sim.config ->
  threshold:float ->
  tables:Response.Tables.t ->
  power:Power.Model.t ->
  base:Traffic.Matrix.t ->
  spec:Scenario.spec ->
  pairs:(int * int) list ->
  links:int ->
  int ->
  trial
(** [run_trial ... k] is trial [k]: the scenario seeded [spec.seed + k],
    simulated and measured. Trials are independent — everything reachable
    is trial-local or read-only except the per-domain Obs counters — so
    distinct trials may run on distinct domains (certified parallel
    entrypoint, see check/analyze.json).
    @raise Invalid_argument on a traffic-conservation violation. *)

val run :
  ?config:Netsim.Sim.config ->
  ?threshold:float ->
  ?jobs:int ->
  tables:Response.Tables.t ->
  power:Power.Model.t ->
  base:Traffic.Matrix.t ->
  spec:Scenario.spec ->
  trials:int ->
  unit ->
  report
(** Runs [trials] seeded scenarios ([spec.seed], [spec.seed + 1], ...) and
    aggregates. [threshold] (default 0.999) is the served fraction of a
    pair's demand below which a pair-sample counts as an outage sample.
    [jobs] (default 1) fans the trials out over that many domains; trial
    [k] lands at index [k] of the report whichever domain ran it, so the
    report — and its {!to_json} rendering — is byte-identical for any
    [jobs].
    @raise Invalid_argument on a traffic-conservation violation,
    [trials <= 0], or a threshold outside (0, 1]. *)

type sweep_entry = {
  sw_link : int;
  sw_partitioned : (int * int) list;
      (** pairs the cut disconnects outright (no path without the link) *)
  sw_lost_bits_after : float;
      (** loss integrated from [fail_at + grace] on — 0 iff the installed
          path set absorbed the failure once reconvergence settled *)
  sw_final_rate : float;  (** total achieved rate at the last sample *)
  sw_delivered_fraction : float;
}

val single_link_sweep :
  ?config:Netsim.Sim.config ->
  tables:Response.Tables.t ->
  power:Power.Model.t ->
  base:Traffic.Matrix.t ->
  fail_at:float ->
  grace:float ->
  duration:float ->
  unit ->
  sweep_entry list
(** Fails every link in turn (never repaired) and measures the
    post-reconvergence outcome — the empirical check of the paper's §4.3
    claim that one failover path absorbs every non-partitioning single-link
    failure with no steady-state loss. [grace] is the allowed
    reconvergence window after the failure.
    @raise Invalid_argument unless [0 <= fail_at] and
    [fail_at + grace < duration]. *)

val to_json : report -> string
(** Canonical JSON summary (fixed key order, fixed float formatting) —
    byte-identical for equal inputs, self-validated against
    {!Obs.Export.validate_json}.
    @raise Invalid_argument if self-validation rejects the generated
    document (a bug guard, not an input error). *)
