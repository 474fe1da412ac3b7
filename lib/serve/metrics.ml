module Counter = Obs.Metric.Counter
module Gauge = Obs.Metric.Gauge
module Histogram = Obs.Metric.Histogram
module Family = Obs.Metric.Family

let requests_family =
  Family.counter ~help:"Requests received, by wire frame type"
    ~label_names:[ "type" ] "serve_requests_total"

(* One child per frame type, bound at init so the hot path never walks
   the family's label table. *)
let req_path_query = Family.labels requests_family [ "path_query" ]
let req_demand_update = Family.labels requests_family [ "demand_update" ]
let req_link_event = Family.labels requests_family [ "link_event" ]
let req_stats = Family.labels requests_family [ "stats" ]
let req_health = Family.labels requests_family [ "health" ]
let req_reload = Family.labels requests_family [ "reload" ]

(* Dispatch on the canonical wire name so the metric label and the
   protocol documentation can never drift apart. *)
let child_of = function
  | "path_query" -> req_path_query
  | "demand_update" -> req_demand_update
  | "link_event" -> req_link_event
  | "stats" -> req_stats
  | "health" -> req_health
  | _ -> req_reload

let observe_request req = Counter.incr (child_of (Wire.request_type req))

let latency =
  Histogram.create ~help:"Wall-clock seconds from frame decode to reply write"
    "serve_latency_seconds"

let swaps =
  Counter.create ~help:"Snapshot hot-swaps published by the recompute domain"
    "serve_snapshot_swaps_total"

let inflight =
  Gauge.create ~help:"Requests decoded but not yet answered" "serve_inflight_requests"

let connections =
  Counter.create ~help:"Binary-protocol connections accepted" "serve_connections_total"

let protocol_errors =
  Counter.create ~help:"Frames rejected as malformed" "serve_protocol_errors_total"

let recompute_errors =
  Counter.create ~help:"Background recomputes dropped after an exception"
    "serve_recompute_errors_total"

let recompute_seconds =
  Histogram.create ~help:"Wall-clock seconds per background snapshot rebuild"
    "serve_recompute_seconds"

let http_requests =
  Counter.create ~help:"HTTP scrape endpoint requests served" "serve_http_requests_total"

(* --------------------------- resilience ---------------------------- *)

let sheds =
  Counter.create ~help:"Requests shed by admission control (err_overloaded)"
    "serve_sheds_total"

let deadline_hits =
  Counter.create ~help:"Requests whose deadline expired before execution (err_deadline)"
    "serve_deadline_hits_total"

let guard_degraded =
  Gauge.create ~help:"1 while the admission guard is in Degraded (shedding) mode"
    "serve_guard_degraded"

let degraded_entries =
  Counter.create ~help:"Normal-to-Degraded transitions of the admission guard"
    "serve_degraded_entries_total"

let degraded_seconds =
  Histogram.create ~help:"Wall-clock seconds spent in Degraded mode per episode"
    "serve_degraded_seconds"

let conns_refused =
  Counter.create ~help:"Binary connections refused at the connection cap"
    "serve_connections_refused_total"

let reaped_family =
  Family.counter ~help:"Connections reaped by the guard, by reason"
    ~label_names:[ "reason" ] "serve_reaped_connections_total"

let reaped_idle = Family.labels reaped_family [ "idle" ]
let reaped_read_deadline = Family.labels reaped_family [ "read_deadline" ]

(* ----------------------------- journal ----------------------------- *)

let journal_appends =
  Counter.create ~help:"Demand/link records appended to the journal"
    "serve_journal_appends_total"

let journal_bytes =
  Counter.create ~help:"Bytes appended to the journal (records incl. framing)"
    "serve_journal_bytes_total"

let journal_replayed =
  Counter.create ~help:"Journal records replayed at startup" "serve_journal_replayed_total"

let journal_compactions =
  Counter.create ~help:"Journal compactions (checkpoint rewrites on snapshot swap)"
    "serve_journal_compactions_total"

let journal_errors =
  Counter.create ~help:"Journal append/compaction IO failures (serving continues)"
    "serve_journal_errors_total"

(* ----------------------------- client ------------------------------ *)

let client_retries =
  Counter.create ~help:"Client request retries after backoff" "serve_client_retries_total"

let client_timeouts =
  Counter.create ~help:"Client connect/read timeouts" "serve_client_timeouts_total"

let breaker_open =
  Gauge.create ~help:"1 while the load generator's circuit breaker is open"
    "serve_breaker_open"

let breaker_opens =
  Counter.create ~help:"Circuit-breaker open transitions in the load generator"
    "serve_breaker_opens_total"
