(** Loop-cost and allocation analysis over the {!Callgraph}: the static
    half of the hot-path campaign (ROADMAP item 1). Like {!Effect} and
    {!Share} it is a zero-dependency heuristic over {!Srclint} tokens.

    {b Intraprocedural}: every definition body gets a per-token lexical
    loop depth — [for]/[while ... done] blocks, the argument span of
    higher-order iteration calls (a dotted name whose last component is
    [iter]/[map]/[fold]/[filter]/[for_all]/[exists]/[partition]/[concat]/
    [sort], with suffixes like [fold_left], [iteri], [map2]), and
    recursive bodies ([let rec] anywhere in the body, or a self-call of
    the definition's own name) each add one level.

    {b Interprocedural}: per-definition facts are propagated along call
    sites by {!Callgraph.fixpoint} on finite lattices, so costs compose —
    a depth-1 callee invoked from a depth-1 site makes the caller
    depth 2, clamped at {!max_depth}:
    - [c_cost]: loop-nest depth including callees, weighted by the
      lexical depth of each call site;
    - [c_alloc]: may allocate a container at all;
    - [c_alloc_per_iter]: may allocate on every iteration of some loop
      (a local allocation inside a loop, a call {e from} a loop to an
      allocating function, or a call to a function that already
      allocates per iteration).

    Rules (see {!analyze}): [quadratic-list-op], [rebuild-in-loop],
    [alloc-in-hot-loop], [memo-unsafe], [cost-manifest].

    Known false negatives, documented in DESIGN.md §12: loops through
    undotted local helpers ([let loop = ... in loop xs]), iteration via
    [Fun.iterate]-style combinators not matching the name heuristic,
    [List.find]/[Seq] pipelines (excluded so [find_opt] lookups do not
    count as loops), allocation through [::]/closures/records (only
    explicit container constructors are tracked), and [for]-loop bounds,
    which are treated as inside the loop although evaluated once. *)

type info = {
  c_local_depth : int;  (** max lexical loop depth inside the own body *)
  c_cost : int;  (** interprocedural loop-nest depth, clamped at {!max_depth} *)
  c_alloc : bool;  (** transitively may allocate a container *)
  c_alloc_per_iter : bool;  (** transitively may allocate per loop iteration *)
}

val max_depth : int
(** Clamp for the cost lattice (3): beyond cubic, deeper is not more
    interesting and the clamp keeps the fixpoint finite. *)

val depths_of_string : string -> (string * int) array
(** Tokenizes [clean]ed source and pairs each token with its lexical
    loop depth (before clamping), for fixtures. *)

val infer : Callgraph.t -> info array
(** Per-definition cost facts at the fixpoint, indexed by [d_id]. *)

val rules : Finding.rule list
(** The cost rules, for [respctl analyze --list-rules]. *)

val analyze :
  ?where:string -> ?manifest:(string * string list) list -> Callgraph.t -> Finding.t list
(** Runs the cost rules over library definitions (entry-point bodies are
    reachability context only). [manifest] is the {!Manifest.t.cost}
    section, with two recognised keys: ["hot"] (declared hot entrypoints)
    and ["memo"] (functions registered with [Eutil.Memo]). Manifest-level
    findings point at [where] (default {!Manifest.path}).

    - [quadratic-list-op] (error): an O(n) list primitive ([List.append],
      [@], [List.mem]/[memq]/[mem_assoc], [List.assoc]/[assoc_opt],
      [List.nth]/[nth_opt]) at lexical loop depth >= 1.
    - [rebuild-in-loop] (error): a container constructed afresh on every
      iteration ([Hashtbl.create], [Array.make]/[make_matrix]/
      [create_float], [Buffer.create], [Bytes.create], [Queue.create],
      [Stack.create], [Array.to_list], [Array.of_list] at depth >= 1).
    - [alloc-in-hot-loop] (warn): a declared hot entrypoint whose
      transitive [c_alloc_per_iter] bit is set; the message carries the
      shortest call chain to the definition with the per-iteration
      allocation site.
    - [memo-unsafe] (error): a declared memoized function whose
      {!Effect} facts show transitive nondeterminism, IO or partiality,
      or whose own body raises directly. The [obs] library is treated as
      effect-free here: instrumentation reads clocks, but spans do not
      change the wrapped value, and [Eutil.Memo] never caches an
      exceptional outcome (DESIGN.md §12 records this exemption).
    - [cost-manifest] (error): a manifest entry that does not resolve to
      any definition, or an unrecognised manifest key. *)
