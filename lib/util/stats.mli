(** Small descriptive-statistics helpers used by experiments and tests. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between order
    statistics. The input array is not modified.
    @raise Invalid_argument on an empty array. *)

type boxplot = {
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}
(** Five-number summary, as drawn by the paper's Figure 9. *)

val boxplot : float array -> boxplot

val ccdf : float array -> float list -> (float * float) list
(** [ccdf xs points] returns, for each threshold in [points], the fraction of
    samples that are [>=] the threshold (in percent, 0..100). *)

val pp_boxplot : Format.formatter -> boxplot -> unit
