(** Admission control, overload shedding, and request deadlines.

    One {!t} guards a server: workers consult {!admit} once per decoded
    request (an atomic in-flight read plus an atomic mode read — no lock,
    no allocation while the mode is steady, which is why [Guard.admit] is
    declared hot in [check/analyze.json]) and bracket request handling with
    {!enter}/{!leave}. The accept loop consults {!conn_opened} per
    accepted binary connection.

    Overload follows a Normal/Degraded hysteresis machine mirroring
    [Core.Te]: the first request to find the in-flight count at
    [max_inflight] trips the guard into Degraded, where every request is
    shed with [err_overloaded] until the in-flight count has stayed below
    the [degrade_low] watermark for [recover_after_s] seconds — so a
    server at the edge of its capacity sheds in sustained bursts instead
    of flapping per request. Transitions publish the
    [serve_guard_degraded] gauge and the [serve_degraded_seconds]
    histogram. *)

type config = {
  max_inflight : int;  (** admission ceiling; 0 disables shedding *)
  max_conns : int;  (** binary connection cap; 0 disables the cap *)
  request_budget_s : float;  (** per-request deadline; 0 disables it *)
  read_deadline_s : float;
      (** a partial frame must complete within this (anti slow-loris);
          0 disables the read deadline *)
  idle_timeout_s : float;  (** reap connections idle this long; 0 = never *)
  degrade_low : float;  (** low watermark, fraction of [max_inflight] *)
  recover_after_s : float;  (** sustained low-water streak before Normal *)
}

val default : config
(** 256 in-flight, 1024 connections, 1 s request budget, 5 s read
    deadline, 60 s idle timeout, recover below 50% after 1 s. *)

type t

type verdict = Admit | Shed

val create : config -> t
(** Starts in Normal with zero in-flight requests and connections.
    @raise Invalid_argument on a negative bound, a NaN/negative time, or
    [degrade_low] outside (0, 1]. *)

val config : t -> config

val admit : t -> now:float -> verdict
(** The admission decision for one decoded request at monotonic time
    [now]. [Shed] means answer [err_overloaded] without executing.
    Lock-free; mode transitions happen inside as CAS publications. *)

val enter : t -> unit
(** Count one admitted request in flight (before handling). *)

val leave : t -> unit
(** Release {!enter}'s slot (after the reply is written). *)

val inflight : t -> int

val conn_opened : t -> bool
(** Claim a connection slot; [false] means the cap is reached and the
    caller must close the socket without serving it. *)

val conn_closed : t -> unit
(** Release a slot claimed by a successful {!conn_opened}. *)

val conns : t -> int

(** {1 Deadlines}

    A deadline is an absolute monotonic timestamp. The server stamps one
    per request batch on arrival ({!deadline}) and checks it just before
    executing each decoded request; an expired request is answered with
    [err_deadline] instead of being executed late. *)

val deadline : t -> now:float -> float
(** [now + request_budget_s], or [infinity] when budgets are off. *)

val expired : deadline:float -> now:float -> bool
