(** The respctld TCP server: one accept domain, a pool of worker domains
    ({!Eutil.Pool.Background}), all serving a shared {!State}.

    Two loopback listeners: the binary {!Wire} protocol on [port] and a
    minimal HTTP/1.0 endpoint on [http_port] ([GET /metrics] Prometheus
    exposition via {!Obs.Export.prometheus_page}, [GET /healthz]
    liveness JSON; one request per connection). Accepted sockets are
    handed round-robin to workers over mutex-guarded queues with a
    self-pipe wakeup; each worker multiplexes its connections with
    [select], decodes frames from a per-connection buffer, and answers
    in arrival order. [TCP_NODELAY] is set on every accepted socket —
    request/response protocols stall a Nagle round-trip otherwise.

    Malformed bytes get one [Error_reply] ([err_malformed]) and the
    connection is closed; semantic rejections ([err_bad_argument]) leave
    the connection open. {!stop} is graceful: listeners close first, then
    every worker answers the requests already readable on its
    connections before closing them (a mid-load reload or shutdown never
    drops an accepted request).

    Every request passes the shared {!Guard} before execution: over the
    in-flight ceiling the server answers [err_overloaded] (and keeps
    shedding until load stays under the low watermark for the recovery
    streak — hysteresis, so the decision cannot flap per request); a
    frame whose budget ran out between its first byte and its turn to
    execute gets [err_deadline]. Both leave the connection open. Binary
    connections over the connection cap are refused at accept; each
    worker reaps connections idle past the idle timeout and slow-loris
    connections holding a partial frame past the read deadline. *)

type t

type config = {
  port : int;  (** binary protocol port; 0 picks an ephemeral one *)
  http_port : int;  (** scrape endpoint port; 0 picks an ephemeral one *)
  workers : int;  (** worker domains (floored at 1) *)
  backlog : int;
  guard : Guard.config;  (** admission control, deadlines, reaping *)
}

val default_config : config
(** Port 4710, scrape on 4711, 2 workers, backlog 64, {!Guard.default}. *)

val start : ?config:config -> State.t -> t
(** Binds both loopback listeners, spawns the domains, and returns with
    the server accepting. The state is shared, not owned: {!stop} leaves
    it running.
    @raise Invalid_argument on a malformed [config.guard] (checked
    before anything binds).
    @raise Unix.Unix_error when a port is taken or the fd budget is
    exhausted; nothing is left running on failure paths after the
    listeners bound. *)

val port : t -> int
(** Actual bound binary port (resolves an ephemeral request). *)

val http_port : t -> int
(** Actual bound scrape port. *)

val served : t -> int
(** Requests answered since {!start} (across all workers). *)

val guard : t -> Guard.t
(** The server's admission guard — exposed so tests and harnesses can
    observe mode/occupancy and drive deterministic shed scenarios. *)

val handle_request : t -> Wire.request -> Wire.response
(** The pure request dispatcher the workers run — exposed so tests and
    in-process harnesses can exercise exactly the served semantics
    without a socket. Declared hot in [check/analyze.json]. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain readable requests, close
    every connection, join all domains. Idempotent. *)
