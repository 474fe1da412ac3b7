(** Plain-text export of traffic traces, for [respctl export --format
    trace]. Format: a header line [interval,<seconds>], then one line per
    positive demand: [interval_index,origin,destination,bits_per_second].
    Nothing in the repository reads the format back. *)

val to_csv : Trace.t -> string
