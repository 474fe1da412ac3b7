(** The [respctl analyze] manifest, [check/analyze.json]: one JSON object
    whose optional sections supply each pass's declarations. Entrypoint
    names are ["Module.definition"], optionally library-qualified; the
    passes validate the keys inside their own section. *)

type t = {
  budget : (string * int) list;  (** rule id to allowed warn findings ({!over_budget}) *)
  parallel : (string * string list) list;  (** region to parallel entrypoints ({!Share}) *)
  cost : (string * string list) list;  (** ["hot"]/["memo"] entrypoints ({!Cost}) *)
  locks : (string * string list) list;
      (** ["order"], ["io_locks"], ["hot"], ["surface"] ({!Lock}) *)
}

type error = {
  offset : int;  (** byte offset where parsing stopped *)
  reason : string;
}

val path : string
(** ["check/analyze.json"], the committed manifest: where manifest-level
    findings point unless a pass is given another [?where]. *)

val empty : t
(** No declarations: what every pass sees without [--manifest]. *)

val parse : string -> (t, error) result
(** Total: any malformed input — not an object, an unknown section, a
    budget that is not an integer in [0, max_int], an unterminated
    string, trailing bytes — is an [Error], never an exception. Commas
    between members are optional. *)

val error_to_string : error -> string

val budget_exceeded : Finding.rule
(** The ratchet's error rule, listed with {!Effect.rules}. *)

val over_budget : ?where:string -> budget:(string * int) list -> Finding.t list -> Finding.t list
(** Error-level [budget-exceeded] findings at [where] (default {!path}),
    in rule order, for every rule whose warn count exceeds its budget
    (absent rules allow 0). *)
