(** Project-wide call graph over toplevel definitions, extracted from the
    one {!Srclint.clean} lexing of each file, which the per-file passes
    ({!Srclint.lint}, {!Flow}, {!Doc}) read too. No ppx, no compiler front
    end: like the rest of the [check] layer this is a deliberately
    heuristic, zero-dependency analysis tuned to this repository's
    ocamlformat style (toplevel definitions at column 1; definitions
    inside a column-1 [module X = struct] block at column 3).

    The graph is the substrate for {!Effect}: each node is one toplevel
    [let]/[and] definition carrying its body tokens; edges link a
    definition to every definition it may call, resolved from dotted
    [Module.ident] references (with per-file [module A = B] aliases
    expanded and a library hint taken from the path's leading components),
    from undotted identifiers matched against same-file definitions, and
    from operator uses.

    Operators: the lexer splits [+:] into [+] and [:], so an operator
    definition is named by its full symbol ([let ( +: ) a b] defines
    ["+:"]), and a run of symbol tokens on one line at consecutive
    columns links to every operator definition that run spells, narrowed
    to the caller's library when it defines one. [U.( +: ) a b] and
    [U.(a +: b)] both reach [Units.+:].

    Known false negatives, by design: calls through functors, first-class
    modules, higher-order escapes ([List.map f] records an edge to [f]'s
    definition only when [f] resolves syntactically), method calls, and
    [include]-re-exported definitions. See DESIGN.md §10. *)

module Ints : Set.S with type elt = int
(** Sets of def, root or lock ids, a common summary lattice. *)

type source = {
  sc_file : string;  (** path used in findings *)
  sc_library : string;  (** dune library (or executable) name *)
  sc_entry : bool;  (** under an [executable]/[tests] dune stanza *)
  sc_test : bool;  (** under a [test]/[tests] dune stanza *)
  sc_text : string;  (** raw file contents *)
}
(** One source file plus its dune context; {!build_sources} lets tests
    construct graphs from in-memory fixtures. *)

type def = {
  d_id : int;  (** index into {!t.defs} *)
  d_library : string;
  d_module : string;
      (** dotted module path within the library, e.g. ["Graph"] or
          ["Graph.Builder"] for a definition inside a submodule *)
  d_name : string;
      (** ["()"] for [let () = ...] initializer blocks, the full symbol
          (["+:"]) for an operator *)
  d_file : string;
  d_line : int;
  d_entry : bool;  (** defined in an executable/test/bench/example *)
  d_test : bool;
      (** defined under a test stanza: an entry whose calls keep nothing
          alive for [dead-function] *)
  d_public : bool;
      (** part of the library's surface: the module either has no [.mli]
          or the [.mli] declares a [val] with this name (submodule
          definitions under an [.mli] are never public) *)
  d_body : Srclint.tok array;  (** body tokens, for effect inference *)
}

type vdecl = {
  v_file : string;
  v_library : string;
  v_module : string;
  v_name : string;
  v_line : int;
  v_raise_doc : bool;
      (** a doc comment (after-style, between this [val] and the next)
          mentions [@raise]; plain comments do not count *)
}
(** One [val] declaration from an [.mli]. *)

type file = {
  f_path : string;
  f_library : string;
  f_entry_tree : bool;  (** from an [entries] tree, not a PATH: {!Flow} skips it *)
  f_lex : Srclint.lexed;  (** the file's tokens and comments *)
}
(** One lexed [.ml] or [.mli] file, kept alongside the defs so the
    per-file passes and those that need file-scope context (e.g. {!Share}
    scanning for [mutable] field declarations or Mutex/Atomic discipline)
    do not re-lex. *)

type t = {
  defs : def array;
  callees : int list array;  (** [callees.(i)] = defs that [defs.(i)] may call *)
  sites : (int * int) list array;
      (** [sites.(i)] = every resolved call site in [defs.(i).d_body] as
          [(token index, callee id)] pairs in body order; the same callee
          appears once per site. {!Cost} pairs the token index with its
          lexical loop depth to tell a call made inside a loop. *)
  vals : vdecl list;
  files : file list;  (** every input, PATH trees first, in walk order *)
}

val build_sources : ?entries:source list -> source list -> t
(** Builds the graph from in-memory sources (fixture-friendly); [entries]
    are entry-tree sources, whose [sc_entry] is forced. *)

val build : ?entries:string list -> string list -> t
(** [build ~entries dirs] lexes every [.ml]/[.mli] under [dirs] (library
    code) and [entries] (executables/tests/examples), reading each
    directory's [dune] file for the library name ([(name ...)], defaulting
    to the directory basename), the entry flag ([(executable],
    [(executables], [(test] or [(tests] stanzas) and the test flag
    ([(test] or [(tests]). Entries whose basename starts with ['.'] or
    ['_'] (e.g. [_build]) are skipped; files are visited in sorted order.
    This is the one directory walk of [respctl analyze]. *)

val per_file :
  ?entry_trees:bool -> t -> (file:string -> Srclint.lexed -> Finding.t list) -> Finding.t list
(** Runs a per-file pass over {!t.files} in order; [~entry_trees:false]
    skips the files of [entries] trees. *)

val fixpoint :
  n:int -> init:(int -> 'a) -> step:('a array -> int -> 'a) -> equal:('a -> 'a -> bool) -> 'a array
(** The Kleene solver behind every interprocedural summary: from
    [v.(i) = init i] it replaces [v.(i)] by [step v i] in place, sweeping
    [0 .. n-1] until a sweep changes nothing under [equal]. With [step]
    monotone and inflationary on a lattice of finite height, the result is
    the least fixpoint above [init] whatever the sweep order, so adding an
    edge can never shrink a summary. *)

val propagate :
  t -> init:(int -> 'a) -> join:('a -> 'a -> 'a) -> equal:('a -> 'a -> bool) -> 'a array
(** {!fixpoint} along call edges: the least [v] with
    [v.(i) ⊒ init i ⊔ ⨆ { v.(j) | j ∈ callees.(i) }], indexed by [d_id]. *)

val reachable : t -> roots:int list -> bool array
(** Forward BFS over [callees]. *)

val shortest_path :
  n:int -> succ:(int -> int list) -> from:int -> target:(int -> bool) -> int list option
(** Breadth-first search over nodes [0 .. n-1], successors tried in
    [succ] order: the shortest path ([from] first) to a node satisfying
    [target], [from] included. *)

val witness : t -> from:int -> target:(int -> bool) -> int list option
(** {!shortest_path} along call edges. *)

val qualified : def -> string
(** ["Module.name"], the spelling findings use for a definition. *)

val where_of : def -> string
(** ["file:line"] of a definition. *)

val where_at : def -> int -> string
(** ["file:line"] of the body token at the given index (the definition's
    own line when the index is past the body). *)

val via : t -> from:int -> target:(int -> bool) -> string
(** The "(via ...)" part of a finding: the {!witness} chain from [from]
    to a definition satisfying [target] as ["A.f -> B.g"], or [from]'s own
    {!qualified} name when there is none. *)

val modkey : def -> string
(** The last component of [d_module]: ["Builder"] for ["Graph.Builder"].
    Cross-module references resolve on it. *)

val resolve_entries :
  t -> add:(Finding.t -> unit) -> rule:Finding.rule -> where:string ->
  unresolved:(string -> string) -> string list -> def list
(** Defs that manifest entrypoint names denote: ["Replay.run"] matches on
    the {!modkey}, ["Response.Replay.run"] also library-qualified. A name
    that resolves to nothing is passed to [add] as the pass's [rule] error
    at [where] (the manifest file), with message [unresolved name]. *)

val narrow : library:string -> hint:string -> ('a -> def) -> 'a list -> 'a list
(** Disambiguates the candidates of a [Hint.Mod.name] reference: with no
    hint, those in [library] when any are; with one, those whose library
    or module path carries it. *)

val name_index : Srclint.tok array -> int -> int
(** Index of the name bound by the [let]/[and] at the given index, past
    attributes, extension markers ([let%test]) and [rec]. *)

val header_end : Srclint.tok array -> int
(** Index of the [=] ending a definition's header: the first at bracket
    level 0 counted from the token after the bound name. The body length
    when there is none: a truncated body, or a parenthesised name
    ([let ( >>= ) m f =]) whose closing bracket drops the level below 0. *)

val span_stop : string -> bool
(** Tokens that end an application span ([;], [in], [then], [|>], ...),
    shared by {!arg_span} and {!Cost}'s loop depths. *)

val matching_close : Srclint.tok array -> int -> int
(** Index of the bracket closing the one opened at the given index, or
    the array length. *)

val arg_span : Srclint.tok array -> int -> int
(** [arg_span body i] is the exclusive end of the application span that
    starts after token [i]: the first index at or past [i+1] holding a
    closing bracket or statement separator at bracket level 0 (relative
    to [i]), or the array length. The span bounds the arguments of a call
    whose head is token [i]; {!Lock} uses it for [Mutex.protect] bodies
    and atomic-discipline checks. *)

val def_params : def -> string list
(** Formal parameter names of a definition: the lowercase undotted tokens
    between the bound name and the {!header_end}, in order. Empty when
    there is no header end. Type names inside annotations may be
    over-collected; callers only test membership. *)

val applied_at : def -> int -> bool
(** Whether the identifier token at the given body index is
    syntactically applied: it heads an application (preceded by a token
    an expression can start after, followed by an argument-start that is
    not a keyword), or is passed bare to a [*.protect]-style combinator
    as the final thunk. *)

val applies_params : def -> bool
(** Whether the definition syntactically applies one of its formal
    parameters ({!applied_at} some occurrence) — i.e. it is a wrapper
    whose closure arguments the graph resolves one step through. *)
