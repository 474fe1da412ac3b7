(** A time series of traffic matrices measured at a fixed interval — the shape
    of the GEANT dataset (15-minute TMs) and of the Google datacenter traces
    (5-minute link measurements) the paper replays. *)

type t = { start : float; interval : float; tms : Matrix.t array }

val make : ?start:float -> interval:float -> Matrix.t array -> t
(** @raise Invalid_argument on an empty series or a non-positive
    interval. *)

val length : t -> int
val at : t -> int -> Matrix.t
val time_of : t -> int -> float
(** Absolute time of the i-th interval, seconds. *)

val iter : t -> f:(int -> float -> Matrix.t -> unit) -> unit
(** [f index time tm] for each interval. *)

val peak : t -> Matrix.t
(** Element-wise envelope: per-OD maximum across the trace — the peak-hour
    estimate used to compute on-demand paths with traffic knowledge. *)

val mean_total : t -> float
