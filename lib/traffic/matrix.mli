(** Traffic matrices: the demand d(O,D) of the paper's model, in bit/s. *)

type t

val create : int -> t
(** All-zero matrix over [n] nodes. *)

val size : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit
(** @raise Invalid_argument on a non-zero diagonal (self) demand. *)

val add_to : t -> int -> int -> float -> unit

val copy : t -> t

val scale : t -> float -> t
(** Fresh matrix with every demand multiplied by the factor. *)

val total : t -> float
(** Sum of all demands. *)

val iter_flows : t -> f:(int -> int -> float -> unit) -> unit
(** Iterates over strictly positive demands, in (origin, destination) order. *)

val fold_flows : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a

val fold_values : t -> init:'a -> f:('a -> float -> 'a) -> 'a
(** Folds over every stored value, including zero, negative, and non-finite
    entries that {!iter_flows} skips — the raw view the [Check.Invariant]
    validators need. *)

val flows : t -> (int * int * float) list
(** Positive demands as a list, in deterministic order. *)

val flows_desc : t -> (int * int * float) list
(** Positive demands sorted by decreasing volume (ties by pair), the order in
    which the feasibility router places them. *)

val of_flows : int -> (int * int * float) list -> t

val uniform : int -> pairs:(int * int) list -> demand:float -> t
(** Equal demand on each pair — e.g. the epsilon matrix of Section 4.1 used to
    compute demand-oblivious always-on paths. *)

val pairs : t -> (int * int) list
(** Origin-destination pairs with positive demand. *)

val signature : t -> string
(** Digest of the matrix size and every positive demand (hex float, exact).
    Matrices with equal signatures place identically; used as the
    traffic-dependent part of {!Response.Framework}'s precompute cache key. *)
