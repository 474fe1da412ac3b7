(** Phantom-typed units of measure for the quantities the evaluation hinges
    on: linecard watts, link capacities in bit/s, demand fractions and
    utilisation ratios, and wall-clock seconds. A quantity ['dim q] is a
    [private float], so the OCaml type checker *is* the unit analyzer:
    adding watts to bit/s, or passing a capacity where a power budget is
    expected, is a compile error — see test/test_util.ml for the
    negative-compilation proof. The dataflow layer ({!Check.Flow}) covers
    what types cannot see (NaN births, magic unit literals, relabelling).

    Constructors are checked: a NaN can never enter the unit system (the
    usual way one is born — an unguarded [0.0 /. 0.0] — is flagged by
    {!Check.Flow} before it gets here). Infinities are allowed; domain-level
    range invariants (e.g. nonnegative power) stay in {!Check.Invariant}.

    Escape hatches are explicit and greppable: {!to_float} to leave the
    system, {!unsafe} to forge a quantity without the NaN check (tests
    forging invalid domain values only). *)

type watts
type bps
type ratio
type seconds
type joules

type +'dim q = private float

(** {1 Checked constructors} — raise [Invalid_argument] on NaN. *)

val watts : float -> watts q
val bps : float -> bps q
val ratio : float -> ratio q
val seconds : float -> seconds q

val unsafe : float -> 'dim q
(** Unchecked injection with a caller-chosen dimension. For tests that forge
    invalid values on purpose; never for production code ({!Check.Flow}
    has no mercy for it either). *)

(** {1 Scale prefixes and rate helpers} *)

val kilo : float
val mega : float
val giga : float

val mbps : float -> bps q
val gbps : float -> bps q

(** {1 Leaving the system} *)

val to_float : 'dim q -> float
(** The bare magnitude. Every [to_float] is an audit point: feeding one back
    into a constructor without a dimension annotation is flagged by
    {!Check.Flow} (rule [unit-relabel]). *)

val percent : ratio q -> float
(** [100 *. to_float r] — for display only. *)

(** {1 Dimension algebra} *)

val zero : 'dim q

val ( +: ) : 'dim q -> 'dim q -> 'dim q

val ( *: ) : ratio q -> 'dim q -> 'dim q
(** Scaling by a dimensionless ratio preserves the dimension. *)

val ( /: ) : 'dim q -> 'dim q -> ratio q
(** Same-dimension division yields a ratio (utilisation = load / capacity).
    Raises [Invalid_argument] on a zero divisor — the NaN factory this
    module exists to shut down. Use {!div_opt} when zero is a live case. *)

val div_opt : 'dim q -> 'dim q -> ratio q option
(** [None] on a zero divisor, [Some (a /: b)] otherwise. *)

val ( *@ ) : watts q -> seconds q -> joules q
(** Power sustained for a duration is an energy. *)

val scale : float -> 'dim q -> 'dim q
(** Multiply by a bare (dimensionless) factor. Checked: raises on a NaN
    result. *)

(** {1 Comparisons} — NaN-safe by construction (no NaN can be inside). *)

val compare_q : 'dim q -> 'dim q -> int
val min_q : 'dim q -> 'dim q -> 'dim q
