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

val rules : (string * string) list
(** [(id, description)] for every lint rule, for [--help]-style listings. *)

(** {1 Lexer}

    The two front-end passes are exposed so that other token-stream analyses
    ({!Flow}) share one OCaml lexer instead of re-implementing comment,
    string, and literal handling. *)

type cleaned = { text : string; pragmas : (int, string list) Hashtbl.t }
(** Source with comments/strings/char literals blanked to spaces (newlines
    and byte offsets preserved) plus the harvested suppression pragmas,
    keyed by line number. *)

val clean : string -> cleaned

type tok = { t : string; tline : int; tcol : int }
(** One token of cleaned source: an identifier (dotted paths joined, e.g.
    ["Hashtbl.find"]), a number literal with its spelling preserved (e.g.
    ["2.5e9"]), a two-character operator (["/."], ["<>"], ...), or a single
    punctuation character. *)

val tokenize : string -> tok array
(** Tokenizes cleaned text; positions are 1-based line/column. *)

type raw = { rule : string; rline : int; rcol : int; msg : string }
(** One rule hit of a token scan, before suppression. *)

val findings_of_scan : file:string -> (tok array -> raw list) -> string -> Finding.t list
(** Cleans and tokenizes source text, runs [scan] over the tokens, drops
    the hits a [(* lint: allow <rule> ... *)] pragma (or [allow all])
    suppresses, and locates the rest at ["file:line:col"]. *)

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

val source_files : string list -> string list
(** Every [.ml]/[.mli] under the given files/directories (recursively),
    skipping entries whose basename starts with ['.'] or ['_']. *)

val lint_string : file:string -> string -> Finding.t list
(** Lints source text; [file] is used only for locations. *)

val lint_paths : string list -> Finding.t list
(** Lints every [.ml]/[.mli] under the given files/directories
    (recursively), skipping entries whose basename starts with ['.'] or
    ['_'] (e.g. [_build]). Findings are ordered by file, then line. *)
