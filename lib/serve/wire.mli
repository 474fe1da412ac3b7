(** The respctld wire protocol: versioned, length-prefixed binary frames.

    Every frame is [magic (u32) | version (u8) | length (u32) | payload],
    all integers big-endian, where [length] is the payload byte count and
    the payload is one tag byte followed by the tag's fixed body layout.
    Requests and responses share the framing but use disjoint tag spaces,
    so a peer can never confuse the two directions.

    The codecs are pure functions on strings: [decode_request] and
    [decode_response] never read a socket and never raise on untrusted
    input — malformed bytes come back as a typed {!error}, and an
    incomplete prefix comes back as {!Truncated} so a streaming caller can
    simply wait for more bytes. The QCheck laws in [test/test_serve.ml]
    pin [decode ∘ encode = id] for every frame shape and total safety on
    arbitrary junk. *)

(** {1 Protocol constants} *)

val magic : int32
(** ["RSPN"] as a big-endian u32. *)

val version : int
(** Current protocol version (1). *)

val header_length : int
(** Bytes before the payload: magic + version + length = 9. *)

val max_payload : int
(** Upper bound on the payload length field (1 MiB): anything larger is
    rejected as {!Oversized} before any allocation happens. *)

(** {1 Frame types} *)

type request =
  | Path_query of { origin : int; dest : int }
      (** Which installed path should traffic of this pair use right now? *)
  | Demand_update of { origin : int; dest : int; bps : float }
      (** Set the pair's demand (bit/s); triggers an async recompute. *)
  | Link_event of { link : int; up : bool }
      (** A link failed or recovered; failover happens on the next query. *)
  | Stats  (** Snapshot version, swap count, served requests, power. *)
  | Health  (** Liveness probe. *)
  | Reload
      (** Force a recompute and block until the fresh snapshot is live. *)

type path_status =
  | Path_ok
  | Unknown_pair  (** no table entry for the pair *)
  | No_usable_path  (** every installed path crosses a failed link *)

type stats_payload = {
  s_version : int;  (** generation of the live snapshot *)
  s_swaps : int;  (** snapshot swaps since startup *)
  s_served : int;  (** requests served since startup *)
  s_uptime_s : float;
  s_levels : int;  (** deepest on-demand level in use *)
  s_power_percent : float;
}

type response =
  | Path_reply of { status : path_status; level : int; nodes : int list }
      (** [level] is the activation level of the chosen path (0 =
          always-on); [nodes] its vertices, origin first. Both are zero /
          empty unless [status] is {!Path_ok}. *)
  | Ack of { version : int }
      (** Update accepted; [version] is the snapshot generation that will
          (or, for [Reload], does) include it. *)
  | Stats_reply of stats_payload
  | Health_reply of { healthy : bool; version : int }
  | Error_reply of { code : int; message : string }

(** {1 Error codes carried by [Error_reply]} *)

val err_malformed : int
(** The peer sent bytes that do not parse; the connection will close. *)

val err_bad_argument : int
(** Parsed fine but semantically invalid (node/link out of range, ...). *)

val err_shutting_down : int

val err_overloaded : int
(** Admission control shed the request: the server is past its in-flight
    watermark (or in Degraded mode). Retry after backoff. *)

val err_deadline : int
(** The request's per-request deadline expired before the server reached
    it (queueing delay); it was not executed. *)

val error_code_name : int -> string
(** Stable lowercase name of an [Error_reply] code ("malformed",
    "overloaded", ...; "unknown" for unassigned codes), used as the
    label of per-code client/load breakdowns. *)

(** {1 Codecs} *)

type error =
  | Truncated  (** a valid prefix; wait for more bytes *)
  | Bad_magic of int32
  | Bad_version of int
  | Oversized of int  (** declared payload length above {!max_payload} *)
  | Bad_tag of int
  | Bad_payload of string  (** tag-specific layout violation *)

val error_to_string : error -> string

val encode_request : request -> string
(** One complete frame.
    @raise Invalid_argument when a field does not fit its wire layout:
    node/link ids outside signed 32 bits, a negative id, or a NaN
    demand. *)

val encode_response : response -> string
(** One complete frame.
    @raise Invalid_argument when a field does not fit its wire layout:
    ids/versions outside their integer ranges, more than 65535 path
    nodes, a level outside [0, 255], or an error message longer than
    65535 bytes. *)

val decode_request : ?pos:int -> string -> (request * int, error) result
(** Decodes one request frame starting at [pos] (default 0); on success
    also returns the offset just past the frame, so a connection buffer
    can be drained frame by frame. Never raises on untrusted input. *)

val decode_response : ?pos:int -> string -> (response * int, error) result
(** As {!decode_request}, for the response direction. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of the whole string — the integrity check behind
    each {!Journal} record. Pure; no table state. *)

val request_type : request -> string
(** Stable lowercase name ("path_query", "stats", ...), used as the
    [type] label of the serve metrics. *)
