(** Deterministic pseudo-random number generation (splitmix64).

    All stochastic inputs in this repository (synthetic traces, random
    origin/destination subsets, generated topologies) are driven by this
    generator so that every experiment is reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n).
    @raise Invalid_argument when [n <= 0]. *)

val range : t -> float -> float -> float
(** [range t lo hi] is uniform in [lo, hi). *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp (mu + sigma * gaussian t)]. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> int -> int array
(** [sample t k n] draws [k] distinct integers from [0, n), in random order.
    @raise Invalid_argument when [k < 0] or [k > n], before drawing. *)
