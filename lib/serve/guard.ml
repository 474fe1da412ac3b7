(* Admission control and request deadlines for the serve plane.

   The hot path is [admit]: an atomic in-flight read plus an atomic mode
   read, no lock and no allocation while the mode is steady. Transitions
   follow the same hysteresis idiom as [Core.Te]'s Normal/Degraded
   machine: crossing the in-flight ceiling enters Degraded and starts
   shedding; the server only returns to Normal after the in-flight count
   has stayed below the low watermark for a sustained streak, so a load
   spike cannot make the admission decision flap per request. *)

type config = {
  max_inflight : int;
  max_conns : int;
  request_budget_s : float;
  read_deadline_s : float;
  idle_timeout_s : float;
  degrade_low : float;
  recover_after_s : float;
}

let default =
  {
    max_inflight = 256;
    max_conns = 1024;
    request_budget_s = 1.0;
    read_deadline_s = 5.0;
    idle_timeout_s = 60.0;
    degrade_low = 0.5;
    recover_after_s = 1.0;
  }

(* Immutable so mode changes are single CAS publications: concurrent
   workers race on the transition, not on field writes. *)
type degraded = { d_since : float; d_low_since : float option }
type mode = Normal | Degraded of degraded

type verdict = Admit | Shed

type t = {
  cfg : config;
  inflight : int Atomic.t;
  conns : int Atomic.t;
  mode : mode Atomic.t;
}

let check_config cfg =
  if cfg.max_inflight < 0 then invalid_arg "Serve.Guard: negative max_inflight";
  if cfg.max_conns < 0 then invalid_arg "Serve.Guard: negative max_conns";
  if Float.is_nan cfg.request_budget_s || cfg.request_budget_s < 0.0 then
    invalid_arg "Serve.Guard: request budget must be a non-negative number";
  if Float.is_nan cfg.read_deadline_s || cfg.read_deadline_s < 0.0 then
    invalid_arg "Serve.Guard: read deadline must be a non-negative number";
  if Float.is_nan cfg.idle_timeout_s || cfg.idle_timeout_s < 0.0 then
    invalid_arg "Serve.Guard: idle timeout must be a non-negative number";
  if (not (cfg.degrade_low > 0.0)) || cfg.degrade_low > 1.0 then
    invalid_arg "Serve.Guard: degrade_low outside (0, 1]";
  if Float.is_nan cfg.recover_after_s || cfg.recover_after_s < 0.0 then
    invalid_arg "Serve.Guard: recovery streak must be a non-negative number"

let create cfg =
  check_config cfg;
  {
    cfg;
    inflight = Atomic.make 0;
    conns = Atomic.make 0;
    mode = Atomic.make Normal;
  }

let config t = t.cfg

(* Low watermark in requests: Degraded keeps shedding above this. At
   least 1 below the ceiling so hysteresis exists even for tiny caps. *)
let low_watermark cfg =
  let low = int_of_float (cfg.degrade_low *. float_of_int cfg.max_inflight) in
  let low = if low >= cfg.max_inflight then cfg.max_inflight - 1 else low in
  if low < 1 then 1 else low

(* Transitions are cold: losing a CAS race just means another worker
   published the same (or a fresher) transition. *)
let enter_degraded t ~now =
  match Atomic.get t.mode with
  | Degraded _ -> ()
  | Normal as cur ->
      if Atomic.compare_and_set t.mode cur (Degraded { d_since = now; d_low_since = None })
      then begin
        Obs.Metric.Counter.incr Metrics.degraded_entries;
        Obs.Metric.Gauge.set Metrics.guard_degraded 1.0
      end

let recover t cur d ~now =
  if Atomic.compare_and_set t.mode cur Normal then begin
    Obs.Metric.Histogram.observe Metrics.degraded_seconds (now -. d.d_since);
    Obs.Metric.Gauge.set Metrics.guard_degraded 0.0
  end

let admit t ~now =
  let cfg = t.cfg in
  if cfg.max_inflight <= 0 then Admit
  else begin
    let infl = Atomic.get t.inflight in
    match Atomic.get t.mode with
    | Normal ->
        if infl < cfg.max_inflight then Admit
        else begin
          enter_degraded t ~now;
          Shed
        end
    | Degraded d as cur ->
        if infl >= low_watermark cfg then begin
          (* Still hot: any low-water streak in progress is void. *)
          (match d.d_low_since with
          | None -> ()
          | Some _ ->
              ignore
                (Atomic.compare_and_set t.mode cur (Degraded { d with d_low_since = None })));
          Shed
        end
        else begin
          (match d.d_low_since with
          | None ->
              ignore
                (Atomic.compare_and_set t.mode cur (Degraded { d with d_low_since = Some now }))
          | Some since -> if now -. since >= cfg.recover_after_s then recover t cur d ~now);
          Admit
        end
  end

let enter t = Atomic.incr t.inflight
let leave t = Atomic.decr t.inflight
let inflight t = Atomic.get t.inflight

let conn_opened t =
  if t.cfg.max_conns <= 0 then begin
    Atomic.incr t.conns;
    true
  end
  else begin
    let before = Atomic.fetch_and_add t.conns 1 in
    if before >= t.cfg.max_conns then begin
      Atomic.decr t.conns;
      false
    end
    else true
  end

let conn_closed t = Atomic.decr t.conns
let conns t = Atomic.get t.conns

(* --------------------------- deadlines ----------------------------- *)

let deadline t ~now =
  if t.cfg.request_budget_s <= 0.0 then Float.infinity else now +. t.cfg.request_budget_s

let expired ~deadline ~now = now > deadline
