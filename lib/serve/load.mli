(** Closed-loop load generator for respctld: [conns] concurrent
    connections, each with at most one pending [path_query] (the classic
    closed-loop model, so offered load never outruns the server by more
    than [conns] requests), multiplexed from one domain with [select].
    An optional rate cap paces fresh sends against the shared run clock;
    an optional mid-run [reload] goes over a dedicated control
    connection so measurement connections never stall on it.

    The generator degrades instead of hanging: a reply that misses
    [timeout_s] replaces its socket and retries; overload/deadline
    rejections retry with seeded exponential backoff and full jitter
    ({!Client.backoff_s} on {!Client.default_retry}'s 50 ms base and 1 s
    cap, up to [retries] per request — path queries are idempotent); and
    [breaker_failures] consecutive failures open a circuit breaker that
    pauses sends for [breaker_cooldown_s], then probes with a single
    request (half-open) before resuming. A retry budget exhausted counts
    the request as failed, so the [respctl load] exit gate accounts for
    sheds that never recovered.

    Latencies are recorded per reply and reported as exact percentiles
    of the full sample set (no histogram error) — the numbers behind the
    [serve-read]/[serve-write] workloads of the repo benchmark
    ([bench/perf]) and the [respctl load] SLO gate. *)

type config = {
  host : string;
  port : int;
  conns : int;  (** concurrent connections (floored at 1) *)
  rate : float;  (** target aggregate QPS; 0 = open throttle *)
  duration_s : float;  (** timed mode: stop issuing after this long *)
  requests : int;  (** when > 0, fixed-count mode overrides the timer *)
  pairs : (int * int) array;  (** origin/dest cycle, in order *)
  reload_at : float option;  (** seconds into the run *)
  timeout_s : float;  (** per-attempt reply deadline; 0 disables *)
  retries : int;  (** retry budget per request (timeouts/sheds) *)
  seed : int;  (** jitter PRNG seed — equal seeds, equal schedules *)
  breaker_failures : int;  (** consecutive failures to open; 0 disables *)
  breaker_cooldown_s : float;  (** open time before the half-open probe *)
}

val default : config
(** Loopback port 4710, 4 connections, open throttle, 3 s, no reload;
    5 s timeout, 2 retries (jitter seed 11), breaker at
    16 consecutive failures with a 0.5 s cooldown. [pairs] is empty and
    must be provided. *)

type report = {
  sent : int;  (** frames on the wire, retries included *)
  completed : int;  (** path replies received (any status) *)
  failed : int;  (** requests lost for good: transport failures, hard
                     error replies, and retry budgets exhausted *)
  wrong : int;  (** replies of an unexpected type *)
  reloads : int;  (** acknowledged mid-run reloads *)
  timeouts : int;  (** attempts whose reply missed [timeout_s] *)
  retried : int;  (** attempts re-sent after backoff *)
  sheds : int;  (** [err_overloaded] replies received *)
  breaker_opens : int;  (** closed/half-open to open transitions *)
  error_codes : (string * int) list;
      (** error replies by {!Wire.error_code_name}, code order *)
  duration_s : float;
  qps : float;  (** completed / duration *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run : config -> (report, string) result
(** [Error _] only on setup problems (bad config, connection refused);
    failures during the run are counted in the report instead. The run
    always terminates: issuing stops at the duration/request budget and
    a stall cutoff bounds the drain even if the server blackholes every
    reply. *)

val to_json : report -> string
(** One deterministic JSON object (non-finite numbers render as null);
    accepted by {!Obs.Export.validate_json}. *)

val pp : Format.formatter -> report -> unit
(** Human-readable multi-line summary. *)
