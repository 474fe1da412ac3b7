(** Interprocedural effect inference over a {!Callgraph}: each definition
    gets a base effect set from its own body tokens, then effects are
    propagated along call edges by {!Callgraph.propagate} (the lattice is
    finite and the join is a union, so the fixpoint is monotone — adding
    an edge can never shrink a definition's effect set).

    The effect lattice tracks:
    - {b Raises}: [failwith] / [invalid_arg] / [raise] in the body, except
      [raise Exit] and raises of a constructor that the same body also
      matches (the local [try ... with C ->] / [| exception C ->] idiom);
    - {b Partial}: calls of partial stdlib primitives — [List.hd],
      [Option.get], bare [Hashtbl.find], and [Array.get] with a
      non-literal index;
    - {b Nondet}: sources of run-to-run nondeterminism —
      [Random.self_init], [Unix.gettimeofday], [Sys.time], and
      [Hashtbl.iter]/[Hashtbl.fold] iteration order (cancelled when the
      same body later sorts the result: the fold-then-sort idiom is
      deterministic);
    - {b IO}: console/file side effects.

    Known false negatives are documented in DESIGN.md §10: effects through
    functors, first-class functions that escape, [a.(i)] sugar (only the
    explicit [Array.get] spelling is tracked), and exceptions handled by a
    {e caller}'s [try] (the analysis does not model catching across
    calls). *)

module Strings : Set.S with type elt = string

type effects = { raises : bool; partial : Strings.t; nondet : Strings.t; io : bool }

val empty : effects
val union : effects -> effects -> effects
val leq : effects -> effects -> bool
val equal_effects : effects -> effects -> bool

val base_of_body : Srclint.tok array -> effects
(** Base (intraprocedural) effects of one definition body. *)

val propagate : Callgraph.t -> effects array -> effects array
(** [propagate g base] is the least array [e] with
    [e.(i) ⊇ base.(i) ∪ ⋃ { e.(j) | j ∈ callees.(i) }]. *)

val witnessed :
  Callgraph.t -> base:effects array -> effects array -> (effects -> Strings.t) -> int ->
  (string * string) option
(** [witnessed g ~base eff sel i]: when def [i]'s transitive effects
    [sel eff.(i)] are nonempty, their least primitive and the
    {!Callgraph.via} chain to a definition whose [base] effects carry
    [sel] directly. *)

val rules : Finding.rule list
(** The effect rules plus the ratchet's [budget-exceeded], for
    [--list-rules]. *)

val analyze : Callgraph.t -> Finding.t list
(** Runs the four rules:
    - [partial-reachable] (error): a public library value whose transitive
      effect set contains a partial primitive; the message carries a
      witness call chain.
    - [nondet-export] (error): a Nondet effect reaching an export surface
      (a definition named [to_json]/[to_csv]/[to_dot]/[to_text]/
      [to_prometheus]/[to_prom], or any definition in a module named
      [Export] or [Harness]).
    - [undocumented-raise] (warn): a public [.mli] value whose body
      {e directly} raises but whose doc comment lacks [@raise].
    - [dead-function] (warn): a library definition unreachable from every
      entry point: the definitions of executables ([bin]/[bench]/
      [examples]) and every [let () = ...] initializer, except those under
      a test stanza ({!Callgraph.def.d_test}), so a function that only its
      tests call is dead. *)

val is_io_prim : string -> bool
(** Whether a token is one of the IO primitives the {b IO} effect tracks;
    {!Lock} reuses the table to flag IO-effectful calls under a lock. *)
