(** A single diagnostic produced by the static-analysis layers: {!Srclint}
    (source-level) and {!Invariant} (domain-level). Findings are plain data
    so that callers can filter, render, or serialise them uniformly. *)

type severity = Error | Warn

type t = {
  rule : string;  (** stable rule identifier, e.g. ["poly-compare"] *)
  severity : severity;
  where : string;  (** location: ["file:line:col"] or a domain entity *)
  message : string;
}

val v : ?severity:severity -> rule:string -> where:string -> string -> t
(** Builds a finding; [severity] defaults to [Error]. *)

type rule = {
  id : string;
  level : severity;  (** the severity of every finding of the rule *)
  section : string;  (** the {!Manifest} section governing it; ["-"] for none *)
  doc : string;
}
(** One [respctl analyze --list-rules] catalogue entry. *)

val rule : ?level:severity -> ?section:string -> string -> string -> rule
(** [rule id doc]; [level] defaults to [Error], [section] to ["-"]. *)

val emit : rule -> where:string -> string -> t
(** A finding of the given rule at its catalogue [level], so the severity
    a pass emits and the one [--list-rules] prints cannot differ. *)

val errors : t list -> t list
(** Only the findings with severity [Error]. *)

val pp : Format.formatter -> t -> unit
(** Renders as [where: severity rule: message]. *)

val render : t list -> string
(** All findings, one per line, in the {!pp} format. *)

val to_json : t list -> string
(** Machine-readable report: a JSON array of objects with fields
    [rule], [severity], [where], and [message]. *)

val to_json_document : (string * t list) list -> string
(** One combined report for a multi-pass run: a JSON object with a
    [passes] array (each element carrying the pass name and its
    {!to_json} findings array) and top-level [errors]/[warnings]
    counts, so [respctl analyze --json] emits a single document rather
    than concatenated per-pass blobs. *)

val to_sarif : rules:rule list -> t list -> string
(** SARIF 2.1.0 document for editor/CI ingestion: one run whose driver
    carries the rule table's ids and descriptions (the same ids
    [--list-rules] prints) and one result per finding, with [Warn]
    mapped to level ["warning"] and [Error] to ["error"]. The [where]
    field's trailing [:line] becomes the region start line; a bare path
    anchors at line 1. *)
