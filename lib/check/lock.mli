(** Lock-discipline analysis over the {!Callgraph} token stream: the
    concurrency counterpart of {!Share}. Where Share proves {e who} may
    touch shared state, this pass checks {e how} the mutexes serialising
    it are used.

    {b Lock identity}: a mutex is born at a [NAME = Mutex.create]
    binding (toplevel [let], local [let], or record-field initialiser)
    and is named [Modkey.NAME] after its enclosing module — the same
    name the rest of the repo uses through [t.lock]-style field reads,
    which resolve back to it heuristically (dotted lowercase paths by
    enclosing module + field, [Mod.name] paths by their last two
    components).

    {b Held regions}: a linear walk per definition tracks the ordered
    held set through [Mutex.lock]/[unlock] pairs, [Mutex.protect]
    application spans, and [Fun.protect] — an unlock inside a
    [~finally:] argument is deferred to the end of the enclosing
    [protect] span, where the finaliser actually runs. A definition that
    applies a formal parameter while holding a lock (the
    [Memo.locked]-style wrapper idiom) exports that lock as a wrapper
    summary; call sites of such wrappers re-play the lock over the
    caller's argument span, so inline closures are scanned in context.
    Summaries compose interprocedurally through {!Callgraph.propagate}
    (may-acquire per definition), as {!Effect} does for effects.

    Rules (see DESIGN.md §15 for the model and known false negatives):
    - [lock-order-cycle] (error): two locks acquired in both orders
      anywhere (including through calls and the declared manifest
      order), with a two-chain witness; or a mutex re-acquired while
      already held (OCaml mutexes are not reentrant).
    - [blocking-under-lock] (warn): a blocking primitive ([Unix.read]/
      [write]/[select]/[sleep]/[fsync]/..., [Domain.join], an Effect-IO
      call, [Condition.wait] on a {e different} mutex) executed or
      reachable through calls while a lock is held — except locks the
      manifest declares [io_locks], whose critical sections are allowed
      to perform IO by design.
    - [lock-held-io] (error): the same evidence inside a definition
      reachable from a manifest-declared hot entrypoint.
    - [atomic-rmw] (error): a naked [Atomic.set x (... Atomic.get x ...)]
      read-modify-write (inline or through a [let]-binder) with no lock
      held and outside any finaliser; under a lock the sequence is
      serialised, and the [Fun.protect] save/restore idiom is
      sequential by design.
    - [useless-lock] (warn): a mutex never acquired, or whose critical
      sections contain no field access, mutation operator, or resolved
      call — locking nothing guards nothing.
    - [lock-manifest] (error): a [locks]-section entry that does not
      resolve, an unknown key, or a certified-surface lock missing from
      the declared order. *)

val rules : Finding.rule list
(** The lock rules, for [respctl analyze --list-rules]. *)

val locks : Callgraph.t -> (string * string * int) list
(** Harvested lock identities as [(name, file, line)], for tests. *)

val analyze :
  ?where:string -> ?manifest:(string * string list) list -> Callgraph.t -> Finding.t list
(** Runs the pass. [manifest] is the {!Manifest.t.locks} section, with
    four recognised keys:
    ["order"] (the canonical lock acquisition order, outermost first),
    ["io_locks"] (locks whose critical sections may block by design),
    ["hot"] (serve hot-path entrypoints escalating blocking findings to
    [lock-held-io]), and ["surface"] (certified modules/libraries whose
    locks must all appear in ["order"]). Manifest-level findings, and the
    declared-order edges of cycle witnesses, name [where] (default
    {!Manifest.path}). *)
