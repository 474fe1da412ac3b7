(** Fault-injecting loopback TCP proxy, the traffic half of the
    [respctl chaos-serve] drill: probes connect to {!port}, the proxy
    relays to a real respctld on [upstream_port], and the active
    {!fault} mangles the bytes in flight — in both directions, so the
    same knob exercises the daemon's decoder totality (corrupt requests)
    and the client's retry/timeout discipline (mangled replies).

    One background domain pumps every link with [select]
    ([Chaosproxy.proxy_loop], certified in [check/analyze.json]); the
    fault is an atomic the harness flips between probes. Randomness
    (corruption position/value, partial-write split) is seeded: equal
    seeds give equal fault streams, so drill outcomes golden-diff. *)

type fault =
  | Pass  (** relay faithfully *)
  | Delay of float  (** hold each burst this many seconds *)
  | Partial_write  (** split each burst, 10 ms pause between halves *)
  | Truncate of int
      (** drop the last [n] bytes of the burst, then close the link —
          the receiver holds a frame that can never complete *)
  | Corrupt  (** flip one seeded-random byte per burst *)
  | Reset  (** close with linger 0: the peer sees a TCP reset *)
  | Blackhole  (** swallow bytes; the connection stays open *)

type t

val start : ?seed:int -> upstream_port:int -> unit -> t
(** Binds an ephemeral loopback listener and spawns the pump domain.
    Starts in {!Pass}. Upstream connections are dialed per accepted
    probe; a probe whose upstream dial fails is closed immediately.
    @raise Unix.Unix_error when the listener cannot bind. *)

val port : t -> int
(** The proxy's listening port — point clients here. *)

val set_fault : t -> fault -> unit
(** Applies to traffic pumped from now on; in-flight bytes are not
    recalled. *)

val stop : t -> unit
(** Joins the pump domain and closes the listener and every link.
    Idempotent. *)
