(** Nested span timers: a lightweight trace tree over {!Clock}.

    [with_ "precompute" f] times [f]; spans opened inside nest as children,
    so a run leaves behind a forest of timed call trees (the last
    {!max_roots} top-level spans are retained). Every completed span also
    feeds the [obs_span_seconds{span="<name>"}] histogram family, so the
    registry carries duration distributions per span name without the
    tree. When {!Control.enabled} is false, [with_] runs its thunk
    directly and records nothing. *)

type node = {
  name : string;
  start_s : float;  (** {!Clock} timestamp at entry. *)
  dur_s : float;  (** Wall-clock duration in seconds. *)
  children : node list;  (** Completed sub-spans, oldest first. *)
}

val with_ : string -> (unit -> 'a) -> 'a
(** Time a thunk as a span. Exception-safe: the span closes (and records)
    even when the thunk raises. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** Like {!with_} but also returns the measured duration. Unlike [with_],
    the duration is measured (and returned) even when observability is
    disabled — only the recording is skipped — so callers like the bench
    harness can use one timing code path regardless of the switch. *)

val roots : unit -> node list
(** Completed top-level spans, oldest first. *)

val max_roots : int
(** Retention bound on completed top-level spans; beyond it the oldest root
    is dropped. *)

val to_text : unit -> string
(** Render the forest, one line per span, children indented under their
    parent. *)
