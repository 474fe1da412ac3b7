(** REsPoNseTE, the paper's online traffic-engineering component
    (Section 4.4): edge routers (agents) aggregate their traffic on the
    always-on paths while the utilisation target holds, activate on-demand
    paths when it no longer does, and fall back to failover paths on
    failures. Decisions are made per origin from utilisation reported by
    probes over the agent's own paths only (which is what makes the scheme
    scalable), every T seconds (T = the maximum round-trip time).

    This module is the pure decision logic; {!Netsim} drives it with
    simulated probes, wake-up latencies and failures. Shifts are bounded per
    decision (a TeXCP-style step cap) and widen only after the hysteresis
    delay, which prevents the persistent oscillations the paper warns
    about. *)

type config = {
  probe_period : Eutil.Units.seconds Eutil.Units.q;
      (** T; set to the network's max RTT *)
  util_threshold : Eutil.Units.ratio Eutil.Units.q;
      (** activate the next level above this (0..1) *)
  low_threshold : Eutil.Units.ratio Eutil.Units.q;
      (** consolidate below this (0..1) *)
  hysteresis : Eutil.Units.seconds Eutil.Units.q;
      (** time below [low_threshold] before stepping down *)
  shift_fraction : Eutil.Units.ratio Eutil.Units.q;
      (** max fraction of a pair's traffic moved per decision *)
  panic_retries : int;
      (** wake rounds attempted from panic mode before escalating to the
          dynamic fallback; 0 escalates on the first degraded probe *)
  panic_backoff : Eutil.Units.seconds Eutil.Units.q;
      (** base of the exponential backoff between panic wake rounds *)
}

val default_config : config
(** threshold 0.9 / low 0.4 / hysteresis 2 probe periods / shift 0.5,
    probe period 0.1 s, 3 panic retries with 0.1 s base backoff. *)

type action =
  | Wake of int list  (** links the agent asks the network to wake *)
  | Set_split of float array  (** new traffic split over the pair's paths *)
  | Use_fallback
      (** every installed path is unusable and panic retries are exhausted:
          the caller should route this pair over the shortest currently
          usable path (OSPF-style) until {!Cancel_fallback} *)
  | Cancel_fallback
      (** an installed path is usable again; drop the dynamic fallback *)

type t

val create : Tables.t -> config -> t
(** Fresh controller state: every pair fully on its always-on path. *)

type pair
(** One pair's controller state. A caller resolves each pair it probes to
    a handle once with {!pair}; {!probe} and {!shares} take the handle, so
    they skip the by-name lookup. *)

val pair : t -> int -> int -> pair
(** [pair t origin dest] is the pair's handle.
    @raise Invalid_argument on an unknown pair. *)

val shares : pair -> float array
(** The pair's current split, without a copy. The controller never writes
    to a split it has handed out: a probe or {!force_split} that changes
    the split replaces the array. The caller must not write to it either. *)

val split : t -> int -> int -> float array
(** Current traffic split of a pair over its paths (activation order), as
    a fresh copy.
    @raise Invalid_argument on an unknown pair. *)

val force_split : t -> int -> int -> float array -> unit
(** Overrides a pair's split (normalised), e.g. to start an experiment from a
    non-default state as in Figure 7, where traffic initially uses all paths
    and REsPoNseTE consolidates it once started.
    @raise Invalid_argument on an unknown pair or a split whose arity does
    not match the pair's path count. *)

val probe :
  t -> pair -> now:float -> util:float array -> known_failed:bool array -> action list
(** One probe round for a pair. Both arrays are indexed by link id and
    hold one entry per link of the tables' graph. [util.(l)] is the
    utilisation the probe reported for link [l]; [known_failed.(l)] is
    [true] when the agent knows link [l] has failed, which makes every
    installed path through it unusable (sleeping links are usable — they
    wake on demand). The returned actions are to be applied by the caller
    in order.

    When every installed path of the pair is unusable the agent escalates
    instead of silently dropping the share: the split is zeroed (so the
    caller measures the unserved demand as loss), up to [panic_retries]
    {!Wake} rounds are issued for all installed links with exponentially
    growing backoff, and then a single {!Use_fallback} asks the caller to
    route dynamically. The first probe that sees a usable installed path
    again restores traffic onto it, emits {!Cancel_fallback} if one was
    requested, and records the outage duration in the
    [te_recovery_seconds] histogram. *)
