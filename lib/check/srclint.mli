(** Self-contained OCaml source linter: a small lexer (comments, strings,
    char literals, quoted strings) plus a token-stream rule engine. No ppx,
    no external parser — by design it is heuristic, catching the banned
    patterns that have bitten energy-aware routing code (see DESIGN.md).

    Rules:
    - [poly-compare]: bare [compare] / [Stdlib.compare] used as a value or
      applied. Polymorphic comparison on float-carrying tuples or records
      mis-orders NaN and costs a megamorphic call per element; use
      [Float.compare]-based comparators.
    - [obj-magic]: any use of [Obj.magic].
    - [hashtbl-find]: bare [Hashtbl.find] (raises an anonymous [Not_found]);
      use [find_opt] or a wrapper with a descriptive error.
    - [catchall-try]: [try ... with _ ->] whose first arm is a wildcard.
    - [list-nth]: [List.nth] — O(n) per access, quadratic in loops.

    Suppression: a comment [(* lint: allow <rule> ... *)] disables the named
    rules (or [all]) on every line the comment spans; when the comment is the
    first thing on its line it also covers the following line. *)

val rules : Finding.rule list
(** The five lint rules, all errors, for [--list-rules]. *)

(** {1 Lexer}

    Every pass reads a file through one {!clean}: {!Callgraph.build} lexes
    each file once, and the lint, flow and doc passes, the call graph and
    its [@raise] attachment all work from that one copy. *)

type comment = {
  c_line : int;  (** line of the opening delimiter *)
  c_end : int;  (** line of the closing delimiter, or the last line when unclosed *)
  c_text : string;  (** the text between the delimiters, nested comments included *)
  c_doc : bool;  (** a doc comment: two stars open it, not one or three *)
  c_own_line : bool;  (** no code precedes it on its first line *)
  c_closed : bool;  (** false when the input ends inside it *)
}

type tok = { t : string; tline : int; tcol : int }
(** One token of the code: an identifier (dotted paths joined, e.g.
    ["Hashtbl.find"]), a number literal with its spelling preserved (e.g.
    ["2.5e9"]), a two-character operator (["/."], ["<>"], ...), or a single
    punctuation character. Positions are 1-based line/column. *)

type lexed = {
  toks : tok array;
  comments : comment list;  (** in source order *)
}

val clean : string -> lexed
(** The one OCaml lexer: blanks comments, string, quoted-string and char
    literals (so no rule sees code inside them), records each comment
    once, and tokenizes the rest. *)

type raw = { rule : Finding.rule; rline : int; rcol : int; msg : string }
(** One rule hit of a token scan, before suppression. *)

val findings_of_scan : file:string -> (tok array -> raw list) -> lexed -> Finding.t list
(** Runs [scan] over the tokens, drops the hits a
    [(* lint: allow <rule> ... *)] (or [allow all]) comment suppresses, and
    locates the rest at ["file:line:col"]. *)

val lint : file:string -> lexed -> Finding.t list
(** The lint pass over one lexed file; [file] is used only for locations. *)

val is_number : string -> bool
(** Whether a token is a number literal (starts with a digit). *)

val table : string list -> (string, unit) Hashtbl.t
(** A constant-time membership set over the given names, for the token
    vocabularies every pass consults once per token. *)

val multi_add : ('a, 'b list) Hashtbl.t -> 'a -> 'b -> unit
(** Conses a value onto the list bound to a key. *)

val is_upper : string -> bool
(** Starts with an uppercase letter: a module or constructor. *)

val is_lower : string -> bool
(** Starts with a lowercase letter or ['_']: a value name. *)

val last_component : string -> string
(** The text after the last ['.'], or the whole string. *)

val read_file : string -> string
