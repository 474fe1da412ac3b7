(** Monotonicised wall clock behind a pluggable source.

    The stock OCaml distribution exposes no CLOCK_MONOTONIC, so the default
    source is [Unix.gettimeofday] made non-decreasing: a backwards step of
    the system clock (NTP slew, manual reset) is absorbed instead of
    producing a negative span duration. A front end that links a real
    monotonic clock (e.g. bechamel's) can inject it with {!set_source};
    tests inject a deterministic counter. *)

val now_s : unit -> float
(** Current time in seconds. Non-decreasing across calls for a fixed
    source. The absolute origin is source-defined; only differences are
    meaningful. *)

val set_source : (unit -> float) -> unit
(** Replace the time source (seconds). Resets the monotonic floor, so the
    new source's origin need not relate to the old one's. *)
