(** Fork-join fan-out over OCaml 5 domains, with deterministic merge order.

    One batch per call: at most [jobs - 1] worker domains are spawned (the
    calling domain participates), indices are claimed from a shared atomic
    counter, and each result is written to the output array at its input
    index. Output order is therefore the input order regardless of
    scheduling, which is what lets [--jobs 1] and [--jobs N] runs produce
    byte-identical reports for equal seeds.

    Safety contract: the function passed in must be [Domain_safe] in the
    {!Check.Share} sense — it may not write any shared mutable root. The
    [check/analyze.json] manifest plus the [shared-write-reachable] /
    [prng-shared] analyze rules enforce this statically for the fan-outs
    shipped in this repository. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f a] is [Array.map f a] computed by up to [jobs]
    domains. [jobs <= 1] (or fewer than two elements) runs sequentially on
    the calling domain — the parallel and sequential paths produce the
    same array. If any [f] raises, the first exception (by claim order) is
    re-raised with its backtrace after all domains have been joined;
    remaining elements are still computed. [jobs] defaults to
    {!default_jobs}. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] with the same contract as
    {!map_array}. *)

module Background : sig
  (** Long-lived domains for servers: where {!map_array} forks and joins
      around one batch, a background group stays up for the process
      lifetime (accept loops, connection workers) and is joined once at
      shutdown. The same [Domain_safe] contract applies to the body —
      shared state must go through the [Atomic]/[Mutex] discipline that
      [check/analyze.json] certifies. *)

  type t

  val spawn : int -> (int -> unit) -> t
  (** [spawn n body] starts [max 1 n] domains, each running [body i] once
      with its index [0 <= i < n]. The body is expected to loop until an
      external stop signal (a flag, a closed fd); the pool imposes no
      protocol of its own. An exception escaping a body is stashed and
      re-raised by {!join}. *)

  val join : t -> unit
  (** Blocks until every body has returned, then re-raises the first
      stashed exception (by completion order), if any, with its
      backtrace. Idempotent only in the absence of exceptions: callers
      should arrange the stop signal before joining. *)
end
