(** Intraprocedural numeric-safety dataflow analysis.

    Reads the tokens of each file's one {!Srclint.clean} lexing as
    per-function streams — a function is a toplevel [let]/[and] at
    column 1 — and runs a single forward pass with
    a two-point lattice per identifier, {b Top} (may be zero) and
    {b NonZero}. Facts are established by comparisons against numeric
    literals, bindings to nonzero constants, and [max <positive>] floors;
    once established, a fact holds for the rest of the function (flow-loose
    by design; DESIGN.md section 7 discusses the trade-off).

    Rules:
    - [div-unguarded]: a [/.] whose divisor is a standalone identifier (or
      [float_of_int] of one) with no NonZero fact, or a literal zero.
      Parenthesised expressions, projections, and applications are
      conservatively trusted.
    - [nan-compare]: a comparison with a [nan] operand (vacuous under
      IEEE 754), or the [x <> x] / [x = x] self-comparison idiom — both
      should be [Float.is_nan].
    - [magic-unit]: a scientific-notation literal of magnitude >= 1e6 that
      is neither wrapped by an [Eutil.Units] constructor nor bound to a
      named constant. [lib/util/units.ml] itself is exempt.
    - [unit-relabel]: a [to_float] result fed straight back into a [Units]
      constructor without a dimension annotation — the one token sequence
      that silently re-labels a quantity's dimension.

    Suppression uses the {!Srclint} pragma syntax:
    [(* lint: allow div-unguarded ... *)]. *)

val rules : Finding.rule list
(** The four flow rules, all errors. *)

val analyze : file:string -> Srclint.lexed -> Finding.t list
(** Analyzes one lexed file; [file] is used for locations and for the
    [magic-unit] exemption of [units.ml]. *)
