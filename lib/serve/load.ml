type config = {
  host : string;
  port : int;
  conns : int;
  rate : float;
  duration_s : float;
  requests : int;
  pairs : (int * int) array;
  reload_at : float option;
  timeout_s : float;
  retries : int;
  seed : int;
  breaker_failures : int;
  breaker_cooldown_s : float;
}

let default =
  {
    host = "127.0.0.1";
    port = 4710;
    conns = 4;
    rate = 0.0;
    duration_s = 3.0;
    requests = 0;
    pairs = [||];
    reload_at = None;
    timeout_s = 5.0;
    retries = 2;
    seed = 11;
    breaker_failures = 16;
    breaker_cooldown_s = 0.5;
  }

type report = {
  sent : int;
  completed : int;
  failed : int;
  wrong : int;
  reloads : int;
  timeouts : int;
  retried : int;
  sheds : int;
  breaker_opens : int;
  error_codes : (string * int) list;
  duration_s : float;
  qps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* --------------------------- sample buffer ------------------------- *)

type samples = { mutable data : float array; mutable len : int }

let samples_create () = { data = Array.make 1024 0.0; len = 0 }

let samples_push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

(* Exact percentile (nearest-rank) of the recorded samples. *)
let samples_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let idx = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    let idx = if idx < 0 then 0 else if idx >= n then n - 1 else idx in
    sorted.(idx)
  end

(* ------------------------------ sockets ---------------------------- *)

(* [pending] is the logical request a connection owns: set when a fresh
   query is issued and only cleared when it completes, permanently
   fails, or the run ends — a timeout or a shed reply keeps it pending
   and schedules a retry ([retry_at]) instead. [fd] is mutable because a
   timed-out or reset connection must be replaced (a late reply would
   desync the stream), while the pending request carries over. *)
type conn = {
  mutable fd : Unix.file_descr;
  inbuf : Buffer.t;
  control : bool;
  mutable outstanding : bool;  (* a frame is on the wire *)
  mutable pending : (int * int) option;
  mutable tries : int;
  mutable retry_at : float;
  mutable sent_at : float;
  mutable dead : bool;
}

let open_conn cfg ~control =
  match Unix.inet_addr_of_string cfg.host with
  | exception Failure _ -> Error (Printf.sprintf "not an address literal: %s" cfg.host)
  | addr -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, cfg.port)) with
      | () ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_e, _, _) -> ());
          Ok
            {
              fd;
              inbuf = Buffer.create 256;
              control;
              outstanding = false;
              pending = None;
              tries = 0;
              retry_at = 0.0;
              sent_at = 0.0;
              dead = false;
            }
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
          Error (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port (Unix.error_message err)))

let kill c =
  if not c.dead then begin
    c.dead <- true;
    c.outstanding <- false;
    try Unix.close c.fd with Unix.Unix_error (_e, _, _) -> ()
  end

let write_frame c payload =
  let n = String.length payload in
  let rec loop off =
    if off >= n then true
    else
      match Unix.write_substring c.fd payload off (n - off) with
      | written -> loop (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  try loop 0 with Unix.Unix_error (_e, _, _) -> false

(* ------------------------------ the run ---------------------------- *)

type breaker = Closed | Open of float (* retry probe at *) | Half_open

type run_state = {
  cfg : config;
  conns : conn array;  (* measurement connections *)
  ctl : conn option;  (* reload channel *)
  rd : Bytes.t;
  lat : samples;
  prng : Eutil.Prng.t;
  start : float;
  mutable issued : int;  (* fresh requests (pacing; retries excluded) *)
  mutable sent : int;  (* frames on the wire (retries included) *)
  mutable completed : int;
  mutable failed : int;
  mutable wrong : int;
  mutable reloads : int;
  mutable timeouts : int;
  mutable retried : int;
  mutable sheds : int;
  mutable breaker_opens : int;
  err_counts : int array;  (* by wire error code; last slot = unknown *)
  mutable consec_failures : int;
  mutable breaker : breaker;
  mutable reload_pending : bool;
  mutable next_pair : int;
  mutable last_done : float;
}

let now () = Unix.gettimeofday ()

let issuing_over rs now =
  if rs.cfg.requests > 0 then rs.issued >= rs.cfg.requests
  else now -. rs.start >= rs.cfg.duration_s

(* ---------------------------- circuit breaker ---------------------- *)

(* Consecutive transport failures/timeouts/shed replies trip the
   breaker: sends stop for the cooldown, then exactly one probe goes out
   (half-open); its fate closes or re-opens the breaker. This is what
   turns "server unreachable" into a short, bounded report instead of a
   hanging load run. *)

let breaker_trip rs t =
  rs.breaker <- Open (t +. Float.max 0.0 rs.cfg.breaker_cooldown_s);
  rs.breaker_opens <- rs.breaker_opens + 1;
  Obs.Metric.Counter.incr Metrics.breaker_opens;
  Obs.Metric.Gauge.set Metrics.breaker_open 1.0

let breaker_note_failure rs t =
  if rs.cfg.breaker_failures > 0 then begin
    rs.consec_failures <- rs.consec_failures + 1;
    match rs.breaker with
    | Half_open -> breaker_trip rs t
    | Closed -> if rs.consec_failures >= rs.cfg.breaker_failures then breaker_trip rs t
    | Open _ -> ()
  end

let breaker_note_success rs =
  rs.consec_failures <- 0;
  match rs.breaker with
  | Closed -> ()
  | Half_open | Open _ ->
      rs.breaker <- Closed;
      Obs.Metric.Gauge.set Metrics.breaker_open 0.0

let wire_outstanding rs =
  Array.fold_left (fun acc c -> if c.outstanding then acc + 1 else acc) 0 rs.conns

let breaker_allows rs t =
  match rs.breaker with
  | Closed -> true
  | Open until ->
      if t >= until then begin
        rs.breaker <- Half_open;
        true
      end
      else false
  | Half_open -> wire_outstanding rs = 0 (* one probe at a time *)

(* ------------------------------ retries ---------------------------- *)

(* One attempt of the pending request failed. Path queries are
   idempotent, so while the retry budget lasts the request stays pending
   and is re-sent after backoff; past the budget it counts as failed. *)
let attempt_failed rs c ~t ~kill_conn =
  breaker_note_failure rs t;
  if kill_conn then kill c;
  match c.pending with
  | None -> ()
  | Some _ ->
      if c.tries < Int.max 0 rs.cfg.retries then begin
        c.tries <- c.tries + 1;
        (* The client's backoff schedule (50 ms base, 1 s cap) drawn from
           this run's seeded stream: equal seeds give equal retry
           schedules, which is what keeps the chaos golden stable. *)
        c.retry_at <- t +. Client.backoff_s Client.default_retry rs.prng ~try_:c.tries
      end
      else begin
        c.pending <- None;
        rs.failed <- rs.failed + 1
      end

let reopen rs c =
  match Unix.inet_addr_of_string rs.cfg.host with
  | exception Failure _ -> false
  | addr -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, rs.cfg.port)) with
      | () ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_e, _, _) -> ());
          c.fd <- fd;
          c.dead <- false;
          c.outstanding <- false;
          Buffer.clear c.inbuf;
          true
      | exception Unix.Unix_error (_e, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
          false)

let send_query rs c pair t =
  let origin, dest = pair in
  if write_frame c (Wire.encode_request (Wire.Path_query { origin; dest })) then begin
    c.outstanding <- true;
    c.sent_at <- t;
    rs.sent <- rs.sent + 1
  end
  else attempt_failed rs c ~t ~kill_conn:true

let try_send rs c t =
  match c.pending with
  | None -> ()
  | Some pair ->
      if if c.dead then reopen rs c else true then send_query rs c pair t
      else attempt_failed rs c ~t ~kill_conn:false

(* Closed-loop send: one query per connection with no pending request,
   paced so that fresh request k is not issued before start + k/rate
   when a rate is set; scheduled retries go out once their backoff
   elapses (on a fresh connection if the old one died). *)
let maybe_send rs c t =
  if not c.outstanding then
    match c.pending with
    | Some _ ->
        if t >= c.retry_at && breaker_allows rs t then begin
          rs.retried <- rs.retried + 1;
          Obs.Metric.Counter.incr Metrics.client_retries;
          try_send rs c t
        end
    | None ->
        if
          (not (issuing_over rs t))
          && (rs.cfg.rate <= 0.0
             || t -. rs.start >= float_of_int rs.issued /. Float.max 1.0 rs.cfg.rate)
          && breaker_allows rs t
        then begin
          let pair = rs.cfg.pairs.(rs.next_pair) in
          rs.next_pair <- (rs.next_pair + 1) mod Array.length rs.cfg.pairs;
          c.pending <- Some pair;
          c.tries <- 0;
          rs.issued <- rs.issued + 1;
          try_send rs c t
        end

let maybe_reload rs t =
  match rs.ctl with
  | Some ctl
    when rs.reload_pending && (not ctl.outstanding) && (not ctl.dead)
         && (match rs.cfg.reload_at with Some at -> t -. rs.start >= at | None -> false) ->
      if write_frame ctl (Wire.encode_request Wire.Reload) then begin
        ctl.outstanding <- true;
        rs.reload_pending <- false
      end
      else kill ctl
  | _ -> ()

let count_error rs code =
  let n = Array.length rs.err_counts in
  let idx = if code >= 0 && code < n - 1 then code else n - 1 in
  rs.err_counts.(idx) <- rs.err_counts.(idx) + 1

let record_reply rs c resp =
  if c.control then begin
    match resp with
    | Wire.Ack _ -> rs.reloads <- rs.reloads + 1
    | _ -> rs.wrong <- rs.wrong + 1
  end
  else begin
    let t = now () in
    (match resp with
    | Wire.Path_reply _ ->
        breaker_note_success rs;
        c.pending <- None;
        rs.completed <- rs.completed + 1;
        samples_push rs.lat ((t -. c.sent_at) *. 1000.0)
    | Wire.Error_reply { code; _ } ->
        count_error rs code;
        if code = Wire.err_overloaded then rs.sheds <- rs.sheds + 1;
        (* Overload/deadline rejections are the server's explicit
           backpressure on an idempotent query: retry after backoff on
           the same (still-synchronized) connection. Anything else is a
           hard failure. *)
        if code = Wire.err_overloaded || code = Wire.err_deadline then
          attempt_failed rs c ~t ~kill_conn:false
        else begin
          breaker_note_failure rs t;
          c.pending <- None;
          rs.failed <- rs.failed + 1
        end
    | _ ->
        c.pending <- None;
        rs.wrong <- rs.wrong + 1);
    rs.last_done <- t
  end

(* The transport died under the connection. A wire-outstanding request
   retries on a fresh socket; a conn waiting out a backoff just loses
   its socket and the retry machinery reopens one. *)
let conn_lost rs c =
  let was_outstanding = c.outstanding in
  kill c;
  if c.control then begin
    if was_outstanding then rs.failed <- rs.failed + 1
  end
  else if was_outstanding then attempt_failed rs c ~t:(now ()) ~kill_conn:false

let read_conn rs c =
  match Unix.read c.fd rs.rd 0 (Bytes.length rs.rd) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_e, _, _) -> conn_lost rs c
  | 0 -> conn_lost rs c
  | n -> (
      Buffer.add_subbytes c.inbuf rs.rd 0 n;
      let data = Buffer.contents c.inbuf in
      match Wire.decode_response data with
      | Error Wire.Truncated -> ()
      | Error _ -> conn_lost rs c (* desynchronized; the retry reopens *)
      | Ok (resp, next) ->
          let len = String.length data in
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf data next (len - next);
          c.outstanding <- false;
          record_reply rs c resp)

(* A reply that never arrives: replace the socket (a late reply would
   desync the stream) and lean on the retry budget. *)
let sweep_timeouts rs t =
  if rs.cfg.timeout_s > 0.0 then
    Array.iter
      (fun c ->
        if (not c.dead) && c.outstanding && t -. c.sent_at > rs.cfg.timeout_s then begin
          rs.timeouts <- rs.timeouts + 1;
          Obs.Metric.Counter.incr Metrics.client_timeouts;
          kill c;
          attempt_failed rs c ~t ~kill_conn:false
        end)
      rs.conns

let conn_of_fd rs fd =
  let n = Array.length rs.conns in
  let rec find i =
    if i >= n then rs.ctl
    else if rs.conns.(i).fd = fd && not rs.conns.(i).dead then Some rs.conns.(i)
    else find (i + 1)
  in
  find 0

let select_fds rs =
  let base =
    match rs.ctl with Some c when c.outstanding && not c.dead -> [ c.fd ] | _ -> []
  in
  Array.fold_left
    (fun acc c -> if c.outstanding && not c.dead then c.fd :: acc else acc)
    base rs.conns

let pending_count rs =
  Array.fold_left
    (fun acc c -> match c.pending with Some _ -> acc + 1 | None -> acc)
    0 rs.conns

(* Drain straggler grace after issuing stops. *)
let drain_grace_s = 2.0

(* Hard stop when nothing has completed for the worst plausible
   request lifetime — the run must terminate even if the server
   blackholes every reply and the breaker never closes again. *)
let stall_cutoff rs =
  let per_try = if rs.cfg.timeout_s > 0.0 then rs.cfg.timeout_s else 5.0 in
  drain_grace_s +. (per_try *. float_of_int (Int.max 0 rs.cfg.retries + 1))

let stalled rs t = t -. Float.max rs.start rs.last_done >= stall_cutoff rs

let finished rs t =
  let drained = pending_count rs = 0 && not rs.reload_pending in
  if rs.cfg.requests > 0 then
    rs.completed + rs.failed + rs.wrong >= rs.cfg.requests
    || (issuing_over rs t && drained)
    || stalled rs t
  else
    (issuing_over rs t && drained)
    || t -. rs.start >= rs.cfg.duration_s +. drain_grace_s
    || stalled rs t

let step rs =
  let t = now () in
  sweep_timeouts rs t;
  maybe_reload rs t;
  Array.iter (fun c -> maybe_send rs c t) rs.conns;
  match Unix.select (select_fds rs) [] [] 0.01 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | readable, _, _ ->
      List.iter
        (fun fd -> match conn_of_fd rs fd with Some c -> read_conn rs c | None -> ())
        readable

let rec drive rs = if finished rs (now ()) then () else begin step rs; drive rs end

let error_breakdown rs =
  let acc = ref [] in
  for i = Array.length rs.err_counts - 1 downto 0 do
    if rs.err_counts.(i) > 0 then acc := (Wire.error_code_name i, rs.err_counts.(i)) :: !acc
  done;
  !acc

let make_report rs =
  let stop = if rs.last_done > rs.start then rs.last_done else now () in
  let dur = stop -. rs.start in
  let sorted = samples_sorted rs.lat in
  {
    sent = rs.sent;
    completed = rs.completed;
    failed = rs.failed;
    wrong = rs.wrong;
    reloads = rs.reloads;
    timeouts = rs.timeouts;
    retried = rs.retried;
    sheds = rs.sheds;
    breaker_opens = rs.breaker_opens;
    error_codes = error_breakdown rs;
    duration_s = dur;
    qps = float_of_int rs.completed /. Float.max 0.000001 dur;
    p50_ms = rank sorted 0.50;
    p90_ms = rank sorted 0.90;
    p99_ms = rank sorted 0.99;
    max_ms = rank sorted 1.0;
  }

let open_all (cfg : config) =
  let n = max 1 cfg.conns in
  let rec go acc i =
    if i >= n then Ok (List.rev acc)
    else
      match open_conn cfg ~control:false with
      | Ok c -> go (c :: acc) (i + 1)
      | Error e ->
          List.iter kill acc;
          Error e
  in
  match go [] 0 with Ok l -> Ok (Array.of_list l) | Error e -> Error e

let run (cfg : config) =
  if Array.length cfg.pairs = 0 then Error "no origin/destination pairs to query"
  else if cfg.port <= 0 then Error "server port must be positive"
  else if cfg.requests <= 0 && cfg.duration_s <= 0.0 then
    Error "either a duration or a request count is required"
  else
    match open_all cfg with
    | Error e -> Error e
    | Ok conns -> (
        let ctl =
          match cfg.reload_at with
          | None -> Ok None
          | Some _ -> (
              match open_conn cfg ~control:true with
              | Ok c -> Ok (Some c)
              | Error e -> Error e)
        in
        match ctl with
        | Error e ->
            Array.iter kill conns;
            Error e
        | Ok ctl ->
            let rs =
              {
                cfg;
                conns;
                ctl;
                rd = Bytes.create 65536;
                lat = samples_create ();
                prng = Eutil.Prng.create cfg.seed;
                start = now ();
                issued = 0;
                sent = 0;
                completed = 0;
                failed = 0;
                wrong = 0;
                reloads = 0;
                timeouts = 0;
                retried = 0;
                sheds = 0;
                breaker_opens = 0;
                err_counts = Array.make 8 0;
                consec_failures = 0;
                breaker = Closed;
                reload_pending = (match cfg.reload_at with Some _ -> true | None -> false);
                next_pair = 0;
                last_done = 0.0;
              }
            in
            drive rs;
            (* Requests still pending at the cutoff never completed. *)
            Array.iter
              (fun c ->
                match c.pending with
                | Some _ ->
                    c.pending <- None;
                    rs.failed <- rs.failed + 1
                | None -> ())
              rs.conns;
            Obs.Metric.Gauge.set Metrics.breaker_open 0.0;
            Array.iter kill rs.conns;
            (match rs.ctl with Some c -> kill c | None -> ());
            Ok (make_report rs))

(* ------------------------------ output ----------------------------- *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.6f" x else "null"

let errors_json codes =
  String.concat "," (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" name n) codes)

let to_json (r : report) =
  Printf.sprintf
    "{\"sent\":%d,\"completed\":%d,\"failed\":%d,\"wrong\":%d,\"reloads\":%d,\
     \"timeouts\":%d,\"retried\":%d,\"sheds\":%d,\"breaker_opens\":%d,\"errors\":{%s},\
     \"duration_s\":%s,\"qps\":%s,\"p50_ms\":%s,\"p90_ms\":%s,\"p99_ms\":%s,\"max_ms\":%s}"
    r.sent r.completed r.failed r.wrong r.reloads r.timeouts r.retried r.sheds
    r.breaker_opens (errors_json r.error_codes) (json_num r.duration_s) (json_num r.qps)
    (json_num r.p50_ms) (json_num r.p90_ms) (json_num r.p99_ms) (json_num r.max_ms)

let pp fmt (r : report) =
  Format.fprintf fmt
    "@[<v>sent %d, completed %d, failed %d, wrong %d, reloads %d@,\
     timeouts %d, retried %d, sheds %d, breaker opens %d@,\
     %.2f s, %.0f req/s@,latency ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f@]"
    r.sent r.completed r.failed r.wrong r.reloads r.timeouts r.retried r.sheds
    r.breaker_opens r.duration_s r.qps r.p50_ms r.p90_ms r.p99_ms r.max_ms;
  match r.error_codes with
  | [] -> ()
  | codes ->
      Format.fprintf fmt "@,errors:";
      List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) codes
