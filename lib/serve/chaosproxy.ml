(* Fault-injecting TCP proxy for resilience drills.

   One background domain multiplexes every proxied connection with
   select; the active fault is an atomic the harness flips between
   probes, so a drill is: set_fault, run traffic, assert the outcome
   class, clear. All randomness (corruption positions and values,
   partial-write split points) comes from one seeded generator owned by
   the pump domain — equal seeds give equal fault byte streams, which is
   what lets the chaos goldens diff byte-for-byte. *)

type fault =
  | Pass
  | Delay of float
  | Partial_write
  | Truncate of int
  | Corrupt
  | Reset
  | Blackhole

type link = {
  cfd : Unix.file_descr;  (* the probing client *)
  sfd : Unix.file_descr;  (* upstream respctld *)
  mutable alive : bool;
}

type t = {
  listen : Unix.file_descr;
  lport : int;
  upstream_port : int;
  seed : int;
  fault : fault Atomic.t;
  stopping : bool Atomic.t;
  mutable pump : Eutil.Pool.Background.t option;
}

(* ------------------------------ plumbing --------------------------- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_e, _, _) -> ()

let kill_link l =
  if l.alive then begin
    l.alive <- false;
    close_quiet l.cfd;
    close_quiet l.sfd
  end

(* RST instead of FIN: linger zero makes close send a reset, which is
   the "connection reset by peer" clients must survive. *)
let reset_link l =
  if l.alive then begin
    (try Unix.setsockopt_optint l.cfd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error (_e, _, _) -> ());
    kill_link l
  end

let write_all fd s =
  let n = String.length s in
  let rec loop off =
    if off >= n then true
    else
      match Unix.write_substring fd s off (n - off) with
      | written -> loop (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  try loop 0 with Unix.Unix_error (_e, _, _) -> false

(* --------------------------- fault injection ----------------------- *)

let forward prng fault l ~dst data =
  match fault with
  | Pass ->
      if not (write_all dst data) then kill_link l
  | Delay d ->
      Unix.sleepf (Float.max 0.0 d);
      if not (write_all dst data) then kill_link l
  | Partial_write ->
      (* Split the burst and pause between the halves: the receiver sees
         a dangling partial frame before the rest lands. *)
      let n = String.length data in
      let cut = if n <= 1 then n else 1 + Eutil.Prng.int prng (n - 1) in
      if not (write_all dst (String.sub data 0 cut)) then kill_link l
      else begin
        Unix.sleepf 0.01;
        if not (write_all dst (String.sub data cut (n - cut))) then kill_link l
      end
  | Truncate drop ->
      (* Deliver a prefix, then close: the receiver holds a frame that
         can never complete. *)
      let keep = Int.max 0 (String.length data - Int.max 0 drop) in
      ignore (write_all dst (String.sub data 0 keep));
      kill_link l
  | Corrupt ->
      let b = Bytes.of_string data in
      let n = Bytes.length b in
      if n > 0 then begin
        let pos = Eutil.Prng.int prng n in
        let flip = 1 + Eutil.Prng.int prng 255 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip land 0xff))
      end;
      if not (write_all dst (Bytes.to_string b)) then kill_link l
  | Reset -> reset_link l
  | Blackhole -> () (* swallow the bytes; the connection stays up *)

(* ------------------------------ pump loop -------------------------- *)

let accept_link t links =
  match Unix.accept ~cloexec:true t.listen with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | cfd, _addr -> (
      let sfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.upstream_port)) with
      | () ->
          (try Unix.setsockopt cfd Unix.TCP_NODELAY true
           with Unix.Unix_error (_e, _, _) -> ());
          (try Unix.setsockopt sfd Unix.TCP_NODELAY true
           with Unix.Unix_error (_e, _, _) -> ());
          links := { cfd; sfd; alive = true } :: !links
      | exception Unix.Unix_error (_e, _, _) ->
          close_quiet sfd;
          close_quiet cfd)

let pump_fd t prng buf l fd =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_e, _, _) -> kill_link l
  | 0 -> kill_link l
  | n ->
      let data = Bytes.sub_string buf 0 n in
      let dst = if fd = l.cfd then l.sfd else l.cfd in
      forward prng (Atomic.get t.fault) l ~dst data

let pump_step t prng buf links =
  links := List.filter (fun l -> l.alive) !links;
  let fds =
    List.fold_left (fun acc l -> l.cfd :: l.sfd :: acc) [ t.listen ] !links
  in
  match Unix.select fds [] [] 0.25 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.listen then accept_link t links
          else
            match List.find_opt (fun l -> l.alive && (fd = l.cfd || fd = l.sfd)) !links with
            | Some l -> pump_fd t prng buf l fd
            | None -> ())
        readable

let proxy_loop t =
  let prng = Eutil.Prng.create t.seed in
  let buf = Bytes.create 65536 in
  let links = ref [] in
  let rec go () =
    if Atomic.get t.stopping then ()
    else begin
      pump_step t prng buf links;
      go ()
    end
  in
  go ();
  List.iter kill_link !links

(* ------------------------------ lifecycle -------------------------- *)

let start ?(seed = 7) ~upstream_port () =
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  (match Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
  | () -> ()
  | exception e ->
      close_quiet listen;
      raise e);
  Unix.listen listen 16;
  let lport =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let t =
    {
      listen;
      lport;
      upstream_port;
      seed;
      fault = Atomic.make Pass;
      stopping = Atomic.make false;
      pump = None;
    }
  in
  t.pump <- Some (Eutil.Pool.Background.spawn 1 (fun _ -> proxy_loop t));
  t

let port t = t.lport
let set_fault t f = Atomic.set t.fault f

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match t.pump with Some p -> Eutil.Pool.Background.join p | None -> ());
    t.pump <- None;
    close_quiet t.listen
  end
