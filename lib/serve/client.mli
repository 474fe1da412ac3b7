(** Blocking respctld client: one TCP connection, strict
    request-then-response, used by [respctl query] and as the per-probe
    primitive of simple harnesses ({!Load} multiplexes its own sockets).

    Errors (refused connection, mid-read EOF, malformed reply, missed
    deadline) come back as [Error msg]; the only exceptions escaping are
    the programmer errors {!Wire.encode_request} documents. *)

type t

val connect : ?host:string -> ?timeout_s:float -> port:int -> unit -> (t, string) result
(** TCP connect with [TCP_NODELAY]; [host] defaults to 127.0.0.1. With
    [timeout_s] > 0 the connect is bounded (non-blocking connect +
    select); a miss counts on [serve_client_timeouts_total]. *)

val call : ?timeout_s:float -> t -> Wire.request -> (Wire.response, string) result
(** Sends one frame and blocks for the matching reply — at most
    [timeout_s] seconds when given (> 0). After an [Error _] the
    connection state is undefined; {!close} it. *)

val close : t -> unit
(** Idempotent. *)

val idempotent : Wire.request -> bool
(** True for requests safe to retry blindly ([path_query], [stats],
    [health]); false for state-changing ones ([demand_update],
    [link_event], [reload]). *)

type retry = {
  attempts : int;  (** total tries, the first included (floored at 1) *)
  base_backoff_s : float;  (** backoff cap doubles from this per retry *)
  max_backoff_s : float;
  seed : int;  (** jitter PRNG seed — equal seeds, equal schedules *)
}

val default_retry : retry
(** 3 attempts, 50 ms base, 1 s cap, seed 7. *)

val backoff_s : retry -> Eutil.Prng.t -> try_:int -> float
(** [backoff_s r prng ~try_] is the full-jitter exponential backoff, in
    seconds, before retry [try_]: a uniform draw from [prng] below
    [min max_backoff_s (base_backoff_s * 2^try_)] (the exponent stops
    growing at 16). [r.seed] is not read: the caller owns the stream, as
    {!request} and {!Load} each seed their own. *)

val request :
  ?host:string ->
  ?connect_timeout_s:float ->
  ?timeout_s:float ->
  ?retry:retry ->
  port:int ->
  Wire.request ->
  (Wire.response, string) result
(** One-shot call: connect, send, await the reply, close. With [retry],
    {!idempotent} requests are re-attempted on transport errors,
    timeouts, and [err_overloaded]/[err_deadline] replies, sleeping a
    seeded full-jitter exponential backoff between tries (counted on
    [serve_client_retries_total]); non-idempotent requests never retry.
    The last outcome is returned when the budget runs out. *)

val http_get : ?host:string -> port:int -> path:string -> unit -> (string, string) result
(** One-shot HTTP/1.0 GET against the scrape endpoint; returns the body
    of a 200, [Error _] on any other status or transport failure. *)
