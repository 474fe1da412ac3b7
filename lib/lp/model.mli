(** Convenience layer for building (mixed-integer) linear programs with named
    variables, in the style of an algebraic modelling language. All variables
    are non-negative; upper bounds become rows. *)

type t
type var

type term = float * var
(** A linear term: coefficient times variable. *)

val create : unit -> t

val var : t -> ?integer:bool -> ?ub:float -> string -> var
(** Fresh variable with lower bound 0 and optional upper bound. *)

val binary : t -> string -> var
(** Integer variable in [0, 1] — the X_i and Y_{i->j} of the paper's model. *)

val constr : t -> term list -> Simplex.relation -> float -> unit
(** Adds a constraint; terms on the same variable are summed. *)

val minimize : t -> term list -> unit
(** Sets the objective (call once).
    @raise Invalid_argument if the objective is already set. *)

type solution

val value : solution -> var -> float
val objective : solution -> float

val solve : ?max_nodes:int -> t -> [ `Optimal of solution | `Infeasible | `Unbounded | `Node_limit ]
(** Solves with {!Simplex} when no integer variable exists, {!Milp}
    otherwise. *)

(** {2 Inspection}

    Read-only views used by the [Check.Invariant] validators (duplicate
    names, non-finite coefficients, inverted bounds). *)

val var_names : t -> string array
(** Variable names in creation order. *)

val constraints : t -> (term list * Simplex.relation * float) list
(** Rows in insertion order, including the rows created by [?ub]. *)

val objective_terms : t -> term list option

val var_index : var -> int
(** Index of a variable into {!var_names}. *)
