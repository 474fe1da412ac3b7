type kind = Binary | Http

type conn = {
  fd : Unix.file_descr;
  kind : kind;
  inbuf : Buffer.t;
  mutable alive : bool;
  mutable last_activity : float;  (* last byte read; drives idle reaping *)
  mutable frame_started : float;  (* meaningful while [inbuf] holds a partial frame *)
}

(* Everything below [conns]/[rdbuf] is touched only by the owning worker
   domain; the queue is the cross-domain handoff and is mutex-guarded,
   with a self-pipe so a sleeping select notices new work. *)
type worker = {
  queue : (Unix.file_descr * kind) Queue.t;  (* guarded by [qlock] *)
  qlock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  rdbuf : Bytes.t;
  wguard : Guard.t;  (* shared with the server and every other worker *)
  mutable last_reap : float;  (* sweeps are rate-limited, not per-frame *)
}

type config = {
  port : int;
  http_port : int;
  workers : int;
  backlog : int;
  guard : Guard.config;
}

let default_config =
  { port = 4710; http_port = 4711; workers = 2; backlog = 64; guard = Guard.default }

type t = {
  state : State.t;
  guard : Guard.t;
  stopping : bool Atomic.t;
  served : int Atomic.t;
  start_s : float;
  bin_listen : Unix.file_descr;
  http_listen : Unix.file_descr;
  bin_port : int;
  scrape_port : int;
  workers : worker array;
  next : int Atomic.t;
  mutable accepter : Eutil.Pool.Background.t option;
  mutable pool : Eutil.Pool.Background.t option;
}

(* ------------------------------ plumbing --------------------------- *)

let read_chunk = 65536
let wake_byte = Bytes.make 1 '!'

let make_worker guard =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (* Both ends non-blocking: a full pipe must not stall the accept
     domain, and draining an already-drained pipe must not stall a
     worker (the reader runs on select readiness OR on shutdown). *)
  Unix.set_nonblock wake_w;
  Unix.set_nonblock wake_r;
  {
    queue = Queue.create ();
    qlock = Mutex.create ();
    wake_r;
    wake_w;
    conns = Hashtbl.create 16;
    rdbuf = Bytes.create read_chunk;
    wguard = guard;
    last_reap = Obs.Clock.now_s ();
  }

let wake w = try ignore (Unix.write w.wake_w wake_byte 0 1) with Unix.Unix_error (_e, _, _) -> ()

let dispatch w fd kind =
  Mutex.lock w.qlock;
  Queue.push (fd, kind) w.queue;
  Mutex.unlock w.qlock;
  wake w

let make_conn fd kind =
  let now = Obs.Clock.now_s () in
  { fd; kind; inbuf = Buffer.create 256; alive = true; last_activity = now; frame_started = now }

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove st.conns c.fd;
    (match c.kind with Binary -> Guard.conn_closed st.wguard | Http -> ());
    try Unix.close c.fd with Unix.Unix_error (_e, _, _) -> ()
  end

let send st c payload =
  let n = String.length payload in
  let rec loop off =
    if off < n then
      match Unix.write_substring c.fd payload off (n - off) with
      | written -> loop (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  (* The peer may vanish mid-reply (EPIPE/ECONNRESET with SIGPIPE
     ignored): its connection just goes away. *)
  try loop 0 with Unix.Unix_error (_e, _, _) -> close_conn st c

(* ---------------------------- dispatching -------------------------- *)

(* The version, levels and power come from one snapshot load: separate
   reads could straddle a swap and pair one snapshot's version with
   another's figures. *)
let stats srv =
  let version, levels, power_percent = State.figures srv.state in
  {
    Wire.s_version = version;
    s_swaps = State.swap_count srv.state;
    s_served = Atomic.get srv.served;
    s_uptime_s = Obs.Clock.now_s () -. srv.start_s;
    s_levels = levels;
    s_power_percent = power_percent;
  }

let handle_request srv req =
  match req with
  | Wire.Path_query { origin; dest } ->
      let status, level, nodes = State.resolve srv.state ~origin ~dest in
      Wire.Path_reply { status; level; nodes }
  | Wire.Demand_update { origin; dest; bps } -> (
      match State.update_demand srv.state ~origin ~dest ~bps with
      | Ok version -> Wire.Ack { version }
      | Error message -> Wire.Error_reply { code = Wire.err_bad_argument; message })
  | Wire.Link_event { link; up } -> (
      match State.set_link srv.state ~link ~up with
      | Ok version -> Wire.Ack { version }
      | Error message -> Wire.Error_reply { code = Wire.err_bad_argument; message })
  | Wire.Stats -> Wire.Stats_reply (stats srv)
  | Wire.Health -> Wire.Health_reply { healthy = true; version = State.version srv.state }
  | Wire.Reload ->
      (* A reload that lands during shutdown would wait on a recompute
         domain that is already draining; refuse it instead. *)
      if Atomic.get srv.stopping then
        Wire.Error_reply { code = Wire.err_shutting_down; message = "server is shutting down" }
      else Wire.Ack { version = State.reload srv.state }

let shed st c =
  Obs.Metric.Counter.incr Metrics.sheds;
  send st c
    (Wire.encode_response
       (Wire.Error_reply
          { code = Wire.err_overloaded; message = "server overloaded; retry with backoff" }))

let deadline_hit st c =
  Obs.Metric.Counter.incr Metrics.deadline_hits;
  send st c
    (Wire.encode_response
       (Wire.Error_reply
          { code = Wire.err_deadline; message = "request deadline expired before execution" }))

(* [arrival] is when the frame's first byte was read — the deadline
   budget covers queueing and partial reads, not just execution. Shed
   and deadline replies leave the connection open: both are explicit
   typed responses the client backoff logic keys on. *)
let respond srv st c ~arrival req =
  Metrics.observe_request req;
  let now = Obs.Clock.now_s () in
  match Guard.admit srv.guard ~now with
  | Guard.Shed -> shed st c
  | Guard.Admit ->
      let deadline = Guard.deadline srv.guard ~now:arrival in
      if Guard.expired ~deadline ~now then deadline_hit st c
      else begin
        Guard.enter srv.guard;
        Obs.Metric.Gauge.add Metrics.inflight 1.0;
        let reply =
          Obs.Metric.Histogram.time Metrics.latency (fun () -> handle_request srv req)
        in
        Obs.Metric.Gauge.add Metrics.inflight (-1.0);
        Guard.leave srv.guard;
        Atomic.incr srv.served;
        send st c (Wire.encode_response reply)
      end

let protocol_error st c e =
  Obs.Metric.Counter.incr Metrics.protocol_errors;
  let message = Wire.error_to_string e in
  send st c (Wire.encode_response (Wire.Error_reply { code = Wire.err_malformed; message }));
  close_conn st c

let drain_binary srv st c =
  let data = Buffer.contents c.inbuf in
  let len = String.length data in
  let arrival = c.frame_started in
  let rec go pos =
    if (not c.alive) || pos >= len then pos
    else
      match Wire.decode_request ~pos data with
      | Ok (req, next) ->
          respond srv st c ~arrival req;
          go next
      | Error Wire.Truncated -> pos
      | Error e ->
          protocol_error st c e;
          len
  in
  let consumed = go 0 in
  if c.alive && consumed > 0 then begin
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf data consumed (len - consumed);
    (* Whatever is left is the start of a fresh partial frame: its read
       deadline runs from now, not from the answered batch's arrival. *)
    if len > consumed then c.frame_started <- Obs.Clock.now_s ()
  end

(* ------------------------------- http ------------------------------ *)

let http_headers_complete data =
  let n = String.length data in
  let rec scan i =
    if i + 3 >= n then false
    else if data.[i] = '\r' && data.[i + 1] = '\n' && data.[i + 2] = '\r' && data.[i + 3] = '\n'
    then true
    else scan (i + 1)
  in
  scan 0

let request_target data =
  match String.index_opt data ' ' with
  | None -> None
  | Some sp1 -> (
      match String.index_from_opt data (sp1 + 1) ' ' with
      | None -> None
      | Some sp2 -> Some (String.sub data 0 sp1, String.sub data (sp1 + 1) (sp2 - sp1 - 1)))

let http_page ~content_type body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    content_type (String.length body) body

let http_not_found =
  "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

let http_reply srv data =
  match request_target data with
  | Some ("GET", "/metrics") ->
      http_page ~content_type:"text/plain; version=0.0.4" (Obs.Export.prometheus_page ())
  | Some ("GET", "/healthz") ->
      http_page ~content_type:"application/json"
        (Printf.sprintf "{\"status\":\"ok\",\"version\":%d,\"served\":%d}"
           (State.version srv.state) (Atomic.get srv.served))
  | _ -> http_not_found

let drain_http srv st c =
  let data = Buffer.contents c.inbuf in
  if http_headers_complete data then begin
    Obs.Metric.Counter.incr Metrics.http_requests;
    send st c (http_reply srv data);
    close_conn st c
  end

(* ---------------------------- worker loop -------------------------- *)

let add_conn st fd kind = Hashtbl.replace st.conns fd (make_conn fd kind)

let drain_wake st =
  (try ignore (Unix.read st.wake_r st.rdbuf 0 64) with Unix.Unix_error (_e, _, _) -> ());
  let rec pop () =
    Mutex.lock st.qlock;
    let item = if Queue.is_empty st.queue then None else Some (Queue.pop st.queue) in
    Mutex.unlock st.qlock;
    match item with
    | None -> ()
    | Some (fd, kind) ->
        add_conn st fd kind;
        pop ()
  in
  pop ()

let handle_conn srv st c =
  match Unix.read c.fd st.rdbuf 0 (Bytes.length st.rdbuf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_e, _, _) -> close_conn st c
  | 0 -> close_conn st c
  | n -> (
      let now = Obs.Clock.now_s () in
      c.last_activity <- now;
      if Buffer.length c.inbuf = 0 then c.frame_started <- now;
      Buffer.add_subbytes c.inbuf st.rdbuf 0 n;
      match c.kind with Binary -> drain_binary srv st c | Http -> drain_http srv st c)

let handle_ready srv st fd =
  match Hashtbl.find_opt st.conns fd with
  | Some c -> handle_conn srv st c
  | None -> drain_wake st (* the only non-connection fd in the set is the self-pipe *)

let live_fds st = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.conns []

(* Connection reaper, run by each worker over its own connections at
   most once a second: idle connections past the idle timeout go first;
   a connection sitting on a partial frame past the read deadline is a
   slow-loris hold on a worker slot and is cut too. Sweeping live_fds
   (not the Hashtbl directly) keeps removal during iteration safe. *)
let reap_deadline = 1.0

let reap_idle st ~now =
  let cfg = Guard.config st.wguard in
  if now -. st.last_reap >= reap_deadline then begin
    st.last_reap <- now;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt st.conns fd with
        | None -> ()
        | Some c ->
            if
              cfg.Guard.read_deadline_s > 0.0
              && Buffer.length c.inbuf > 0
              && now -. c.frame_started > cfg.Guard.read_deadline_s
            then begin
              Obs.Metric.Counter.incr Metrics.reaped_read_deadline;
              close_conn st c
            end
            else if
              cfg.Guard.idle_timeout_s > 0.0
              && now -. c.last_activity > cfg.Guard.idle_timeout_s
            then begin
              Obs.Metric.Counter.incr Metrics.reaped_idle;
              close_conn st c
            end)
      (live_fds st)
  end

let worker_step srv st =
  (match Unix.select (st.wake_r :: live_fds st) [] [] 0.5 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | readable, _, _ -> List.iter (fun fd -> handle_ready srv st fd) readable);
  reap_idle st ~now:(Obs.Clock.now_s ())

(* Answer whatever is already readable, then close everything: requests
   that reached the kernel before shutdown still get their replies. *)
let final_drain srv st =
  drain_wake st;
  (match Unix.select (live_fds st) [] [] 0.0 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | readable, _, _ -> List.iter (fun fd -> handle_ready srv st fd) readable);
  List.iter
    (fun fd ->
      match Hashtbl.find_opt st.conns fd with Some c -> close_conn st c | None -> ())
    (live_fds st);
  try Unix.close st.wake_r with Unix.Unix_error (_e, _, _) -> ()

let rec worker_loop srv st =
  if Atomic.get srv.stopping then final_drain srv st
  else begin
    worker_step srv st;
    worker_loop srv st
  end

(* ---------------------------- accept loop -------------------------- *)

let accept_one srv lfd =
  let kind = if lfd = srv.bin_listen then Binary else Http in
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | fd, _addr ->
      if kind = Binary && not (Guard.conn_opened srv.guard) then begin
        (* Over the connection cap: refuse at the door rather than let an
           fd flood starve the workers. The slot was never granted, so
           nothing to give back. *)
        Obs.Metric.Counter.incr Metrics.conns_refused;
        try Unix.close fd with Unix.Unix_error (_e, _, _) -> ()
      end
      else begin
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_e, _, _) -> ());
        if kind = Binary then Obs.Metric.Counter.incr Metrics.connections;
        let k = Atomic.fetch_and_add srv.next 1 in
        dispatch srv.workers.(k mod Array.length srv.workers) fd kind
      end

let accept_step srv =
  match Unix.select [ srv.bin_listen; srv.http_listen ] [] [] 0.25 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | readable, _, _ -> List.iter (fun lfd -> accept_one srv lfd) readable

let rec accept_loop srv =
  if Atomic.get srv.stopping then ()
  else begin
    accept_step srv;
    accept_loop srv
  end

(* ------------------------------ lifecycle -------------------------- *)

let listen_on ~backlog port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
      raise e);
  Unix.listen fd backlog;
  let actual = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port in
  (fd, actual)

let start ?(config = default_config) state =
  (* A dying peer must not kill the process: EPIPE comes back as a
     Unix_error on the write instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Validate the guard before binding anything: a bad config must not
     leave bound listeners behind. *)
  let guard = Guard.create config.guard in
  let bin_listen, bin_port = listen_on ~backlog:config.backlog config.port in
  let http_listen, scrape_port =
    match listen_on ~backlog:config.backlog config.http_port with
    | r -> r
    | exception e ->
        (try Unix.close bin_listen with Unix.Unix_error (_e, _, _) -> ());
        raise e
  in
  let srv =
    {
      state;
      guard;
      stopping = Atomic.make false;
      served = Atomic.make 0;
      start_s = Obs.Clock.now_s ();
      bin_listen;
      http_listen;
      bin_port;
      scrape_port;
      workers = Array.init (max 1 config.workers) (fun _ -> make_worker guard);
      next = Atomic.make 0;
      accepter = None;
      pool = None;
    }
  in
  srv.pool <-
    Some (Eutil.Pool.Background.spawn (Array.length srv.workers) (fun i -> worker_loop srv srv.workers.(i)));
  srv.accepter <- Some (Eutil.Pool.Background.spawn 1 (fun _ -> accept_loop srv));
  srv

let port srv = srv.bin_port
let http_port srv = srv.scrape_port
let served srv = Atomic.get srv.served
let guard srv = srv.guard

let stop srv =
  if not (Atomic.exchange srv.stopping true) then begin
    (* Closing the listeners wakes the accept select immediately; the
       loop re-checks the flag and exits. *)
    (try Unix.close srv.bin_listen with Unix.Unix_error (_e, _, _) -> ());
    (try Unix.close srv.http_listen with Unix.Unix_error (_e, _, _) -> ());
    (match srv.accepter with Some p -> Eutil.Pool.Background.join p | None -> ());
    srv.accepter <- None;
    Array.iter wake srv.workers;
    (match srv.pool with Some p -> Eutil.Pool.Background.join p | None -> ());
    srv.pool <- None;
    Array.iter
      (fun w -> try Unix.close w.wake_w with Unix.Unix_error (_e, _, _) -> ())
      srv.workers
  end
