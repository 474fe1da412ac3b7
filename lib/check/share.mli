(** Domain-safety analysis: shared-mutable-state audit over the
    {!Callgraph}.

    A {e root} is a toplevel library value binding whose evaluation
    (transitively, to a may-allocate fixpoint over the call graph)
    allocates mutable storage — a [ref], array, hashtable, buffer, queue,
    PRNG stream ({!Eutil.Prng}), record with [mutable] fields, or [lazy]
    cell — and therefore owns state that survives module initialisation
    and is shared by every domain. The ambient [Stdlib.Random] state is an
    extra builtin root. Reads and writes of roots are harvested from body
    tokens in context ([x := ...], [h.f <- ...], [a.(i) <- ...],
    [Hashtbl.replace x ...], [incr x]; any use of a PRNG or lazy root
    counts as a write) and propagated through the call graph by
    {!Callgraph.propagate}, giving every definition its transitive
    {!reads} and {!writes}.

    A root is {e guarded} when its owning file (or the file of the
    allocating definition) uses a [Mutex]/[Atomic]/[Domain.DLS]
    discipline. Guarded roots are considered safe for the race rules;
    PRNG streams stay interesting regardless, because a mutex serialises
    draws without making their order deterministic.

    Heuristic blind spots (accepted, like {!Effect}'s): aliased roots
    escaping through function returns, mutation through functor or
    first-class-module indirection, array literals ([[| ... |]]) as
    roots, and writes performed by higher-order callbacks that never
    resolve syntactically. See DESIGN.md §11. *)

type root_kind = Mutable | Prng | Lazy_val

type root = {
  r_id : int;  (** index into {!roots} *)
  r_def : int;  (** def id of the owning binding; -1 for [Stdlib.Random] *)
  r_name : string;  (** qualified, e.g. ["Registry.default"] *)
  r_kind : root_kind;
  r_guarded : bool;  (** owning module shows Mutex/Atomic/DLS discipline *)
  r_file : string;
  r_line : int;
}

type audit
(** Roots plus per-definition base and transitive read/write sets. *)

val audit : Callgraph.t -> audit

val roots : audit -> root array

val reads : audit -> int -> int list
(** Transitive root ids read by a def id (sorted). *)

val writes : audit -> int -> int list
(** Transitive root ids written by a def id (sorted). *)

val rules : Finding.rule list
(** The share rules, for [respctl analyze --list-rules]. *)

val analyze :
  ?where:string -> ?manifest:(string * string list) list -> Callgraph.t -> Finding.t list
(** Runs the audit and emits findings. [manifest] is the
    {!Manifest.t.parallel} section: region names mapped to entrypoint
    names. Manifest-level findings point at [where] (default
    {!Manifest.path}).

    - [shared-write-reachable] (error): a manifest entrypoint transitively
      writes an unguarded root; the message carries the shortest call
      chain to the writing definition.
    - [unguarded-global] (warn): an unguarded root that some definition
      actually writes (allocated-but-never-mutated values are shared
      read-only data and stay silent).
    - [prng-shared] (error): one PRNG stream reachable from two or more
      distinct manifest entrypoints, guarded or not.
    - [parallel-manifest] (error): a manifest entrypoint that does not
      resolve to any definition — a typo would otherwise silently certify
      nothing. *)
