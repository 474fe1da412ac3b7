(** Serving-plane instruments, all on the default {!Obs.Registry}.

    Family children are resolved once at module initialisation, so the
    request hot path touches only a pre-bound counter — no label lookup,
    no allocation. Everything here is a no-op while [Obs.set_enabled
    false], like every other instrument in the tree. *)

val observe_request : Wire.request -> unit
(** Bump [serve_requests_total{type=...}] for the request's wire type. *)

val latency : Obs.Metric.Histogram.t
(** [serve_latency_seconds]: wall-clock request handling time, observed
    per answered frame; p50/p90/p99 come from the registry snapshot. *)

val swaps : Obs.Metric.Counter.t
(** [serve_snapshot_swaps_total]: successful atomic snapshot hot-swaps. *)

val inflight : Obs.Metric.Gauge.t
(** [serve_inflight_requests]: frames decoded but not yet answered. *)

val connections : Obs.Metric.Counter.t
(** [serve_connections_total]: accepted binary-protocol connections. *)

val protocol_errors : Obs.Metric.Counter.t
(** [serve_protocol_errors_total]: frames rejected as malformed. *)

val recompute_errors : Obs.Metric.Counter.t
(** [serve_recompute_errors_total]: background recomputes that raised and
    were dropped (the previous snapshot stays live). *)

val recompute_seconds : Obs.Metric.Histogram.t
(** [serve_recompute_seconds]: duration of background snapshot rebuilds
    (one evaluation of the staged matrix each). *)

val http_requests : Obs.Metric.Counter.t
(** [serve_http_requests_total]: scrape-endpoint requests served. *)

(** {1 Resilience (PR 9)} *)

val sheds : Obs.Metric.Counter.t
(** [serve_sheds_total]: requests refused with [err_overloaded]. *)

val deadline_hits : Obs.Metric.Counter.t
(** [serve_deadline_hits_total]: requests answered [err_deadline] because
    their budget expired before execution. *)

val guard_degraded : Obs.Metric.Gauge.t
(** [serve_guard_degraded]: 1 while the admission guard is shedding. *)

val degraded_entries : Obs.Metric.Counter.t
(** [serve_degraded_entries_total]: Normal→Degraded transitions. *)

val degraded_seconds : Obs.Metric.Histogram.t
(** [serve_degraded_seconds]: length of each Degraded episode. *)

val conns_refused : Obs.Metric.Counter.t
(** [serve_connections_refused_total]: accepts closed at the cap. *)

val reaped_idle : Obs.Metric.Counter.t
(** [serve_reaped_connections_total{reason="idle"}]. *)

val reaped_read_deadline : Obs.Metric.Counter.t
(** [serve_reaped_connections_total{reason="read_deadline"}]: slow-loris
    connections holding a partial frame past the read deadline. *)

val journal_appends : Obs.Metric.Counter.t
(** [serve_journal_appends_total]: accepted updates made durable. *)

val journal_bytes : Obs.Metric.Counter.t
(** [serve_journal_bytes_total]: bytes written to the journal. *)

val journal_replayed : Obs.Metric.Counter.t
(** [serve_journal_replayed_total]: records replayed at startup. *)

val journal_compactions : Obs.Metric.Counter.t
(** [serve_journal_compactions_total]: checkpoint rewrites. *)

val journal_errors : Obs.Metric.Counter.t
(** [serve_journal_errors_total]: journal IO failures survived. *)

val client_retries : Obs.Metric.Counter.t
(** [serve_client_retries_total]: retried idempotent client calls. *)

val client_timeouts : Obs.Metric.Counter.t
(** [serve_client_timeouts_total]: client connect/read timeouts. *)

val breaker_open : Obs.Metric.Gauge.t
(** [serve_breaker_open]: 1 while the load generator's breaker is open. *)

val breaker_opens : Obs.Metric.Counter.t
(** [serve_breaker_opens_total]: closed→open breaker transitions. *)
