(** Loop-cost and allocation analysis over the {!Callgraph}: the static
    half of the hot-path work. Like {!Effect} and {!Share} it is a
    zero-dependency heuristic over {!Srclint} tokens.

    {b Intraprocedural}: every definition body gets a per-token lexical
    loop depth — [for]/[while ... done] blocks, the argument span of
    higher-order iteration calls (a dotted name whose last component is
    [iter]/[map]/[fold]/[filter]/[for_all]/[exists]/[partition]/[concat]/
    [sort], with suffixes like [fold_left], [iteri], [map2]), and
    recursive bodies ([let rec] anywhere in the body, or a self-call of
    the definition's own name) each add one level.

    The lexical depth is what [quadratic-list-op] and [rebuild-in-loop]
    judge, and their messages print it.

    {b Interprocedural}: two allocation facts are propagated along call
    sites by {!Callgraph.fixpoint} on the boolean lattice:
    - may allocate a container at all;
    - may allocate on every iteration of some loop (a local allocation
      inside a loop, a call {e from} a loop to an allocating function, or
      a call to a function that already allocates per iteration).

    [alloc-in-hot-loop] reads the second for the declared hot
    entrypoints. No loop-nest depth is propagated across calls: no rule
    reads one.

    Rules (see {!analyze}): [quadratic-list-op], [rebuild-in-loop],
    [alloc-in-hot-loop], [memo-unsafe], [cost-manifest].

    Known false negatives, documented in DESIGN.md §12: loops through
    undotted local helpers ([let loop = ... in loop xs]), iteration via
    [Fun.iterate]-style combinators not matching the name heuristic,
    [List.find]/[Seq] pipelines (excluded so [find_opt] lookups do not
    count as loops), allocation through [::]/closures/records (only
    explicit container constructors are tracked), and [for]-loop bounds,
    which are treated as inside the loop although evaluated once. *)

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
    - [alloc-in-hot-loop] (warn): a declared hot entrypoint that
      transitively allocates per iteration; the message carries the
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
