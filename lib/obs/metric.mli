(** Instruments: counters, gauges, log-linear histograms, and labelled
    families.

    Every mutating operation is a no-op while {!Control.enabled} is false —
    one load-and-branch — so instrumentation can live permanently on hot
    paths. Creation registers the instrument with a {!Registry} (the
    process-wide {!Registry.default} unless overridden), which is where
    exporters read the values back. *)

module Counter : sig
  (** Monotonically non-decreasing count (events, pivots, transitions). *)

  type t

  val create :
    ?registry:Registry.t -> ?labels:(string * string) list -> help:string -> string -> t
  (** [create ~help name] registers a counter. Raises [Invalid_argument] on
      a bad or duplicate name (see {!Registry.register}). *)

  val incr : t -> unit

  val add : t -> float -> unit
  (** Raises [Invalid_argument] on a negative or NaN increment (when
      enabled; disabled calls are unchecked no-ops). *)

  val add_int : t -> int -> unit
  val value : t -> float
end

module Gauge : sig
  (** Instantaneous level that can move both ways (watts, active links). *)

  type t

  val create :
    ?registry:Registry.t -> ?labels:(string * string) list -> help:string -> string -> t

  val set : t -> float -> unit
  (** Raises [Invalid_argument] on NaN (when enabled). *)

  val set_int : t -> int -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  (** Log-linear histogram: 32 linear sub-buckets per binary octave, so any
      estimate drawn from a bucket is within ~3% relative error of the true
      observation. Tracks exact count/sum/min/max on the side; p50/p90/p99
      come from a cumulative walk over the buckets. Non-positive and
      non-finite observations are counted (in [count]/[sum]/[min]/[max])
      but land in overflow bins rather than a log bucket. *)

  type t

  val create :
    ?registry:Registry.t -> ?labels:(string * string) list -> help:string -> string -> t

  val observe : t -> float -> unit
  (** Raises [Invalid_argument] on NaN (when enabled). *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time h f] runs [f] and observes its wall-clock duration ({!Clock}),
      exception-safely. When disabled, runs [f] with no clock reads. *)

  val count : t -> int
  val sum : t -> float

  val snapshot : t -> Registry.histogram_snapshot
  (** Count, sum, min, max, cumulative buckets and the 0.5, 0.9 and 0.99
      quantile estimates (0 when empty). Estimates clamp to the exact
      observed [min]/[max]. *)
end

module Family : sig
  (** A labelled family: one metric name, one child instrument per distinct
      label-value vector (e.g. [netsim_events_total{type="probe"}]).
      Children are created and registered on first use and cached. *)

  type 'a t

  val counter :
    ?registry:Registry.t -> help:string -> label_names:string list -> string -> Counter.t t

  val histogram :
    ?registry:Registry.t -> help:string -> label_names:string list -> string -> Histogram.t t

  val labels : 'a t -> string list -> 'a
  (** [labels fam values] is the child for [values] (positionally matching
      [label_names]), created on first use. Raises [Invalid_argument] on an
      arity mismatch. *)
end
