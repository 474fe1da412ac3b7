(* Pure codecs for the respctld frame protocol. Decoding is total on
   arbitrary bytes: every read is bounds-checked up front (fixed layouts
   are length-checked per tag), so untrusted input can only produce a
   typed [error], never an exception. See wire.mli for the layout. *)

let magic = 0x5253504El (* "RSPN" *)
let version = 1
let header_length = 9
let max_payload = 1 lsl 20

(* Wire-layout bounds, named so the numeric-safety pass can see they are
   not unit-carrying magnitudes. *)
let i32_max = 0x7fff_ffff
let u16_max = 0xffff
let u8_max = 0xff

type request =
  | Path_query of { origin : int; dest : int }
  | Demand_update of { origin : int; dest : int; bps : float }
  | Link_event of { link : int; up : bool }
  | Stats
  | Health
  | Reload

type path_status = Path_ok | Unknown_pair | No_usable_path

type stats_payload = {
  s_version : int;
  s_swaps : int;
  s_served : int;
  s_uptime_s : float;
  s_levels : int;
  s_power_percent : float;
}

type response =
  | Path_reply of { status : path_status; level : int; nodes : int list }
  | Ack of { version : int }
  | Stats_reply of stats_payload
  | Health_reply of { healthy : bool; version : int }
  | Error_reply of { code : int; message : string }

let err_malformed = 1
let err_bad_argument = 2
let err_shutting_down = 3
let err_overloaded = 4
let err_deadline = 5

let error_code_name = function
  | 1 -> "malformed"
  | 2 -> "bad_argument"
  | 3 -> "shutting_down"
  | 4 -> "overloaded"
  | 5 -> "deadline"
  | _ -> "unknown"

(* ------------------------------ tags ------------------------------- *)

let tag_path_query = 1
let tag_demand_update = 2
let tag_link_event = 3
let tag_stats = 4
let tag_health = 5
let tag_reload = 6
let tag_path_reply = 65
let tag_ack = 66
let tag_stats_reply = 67
let tag_health_reply = 68
let tag_error_reply = 69

(* ----------------------------- errors ------------------------------ *)

type error =
  | Truncated
  | Bad_magic of int32
  | Bad_version of int
  | Oversized of int
  | Bad_tag of int
  | Bad_payload of string

let error_to_string = function
  | Truncated -> "truncated frame"
  | Bad_magic m -> Printf.sprintf "bad magic 0x%08lx" m
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds the frame limit" n
  | Bad_tag t -> Printf.sprintf "unknown frame tag %d" t
  | Bad_payload msg -> Printf.sprintf "malformed payload: %s" msg

(* ----------------------------- encoding ---------------------------- *)

let check_range what v lo hi =
  if v < lo || v > hi then
    invalid_arg (Printf.sprintf "Serve.Wire: %s %d outside [%d, %d]" what v lo hi)

let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)
let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let put_i32 b v = Buffer.add_int32_be b (Int32.of_int v)

let with_frame fill =
  let p = Buffer.create 64 in
  fill p;
  let len = Buffer.length p in
  let b = Buffer.create (header_length + len) in
  Buffer.add_int32_be b magic;
  Buffer.add_uint8 b version;
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_buffer b p;
  Buffer.contents b

let encode_request r =
  with_frame (fun b ->
      match r with
      | Path_query { origin; dest } ->
          check_range "origin" origin 0 i32_max;
          check_range "dest" dest 0 i32_max;
          Buffer.add_uint8 b tag_path_query;
          put_i32 b origin;
          put_i32 b dest
      | Demand_update { origin; dest; bps } ->
          check_range "origin" origin 0 i32_max;
          check_range "dest" dest 0 i32_max;
          if Float.is_nan bps then invalid_arg "Serve.Wire: NaN demand";
          Buffer.add_uint8 b tag_demand_update;
          put_i32 b origin;
          put_i32 b dest;
          put_f64 b bps
      | Link_event { link; up } ->
          check_range "link" link 0 i32_max;
          Buffer.add_uint8 b tag_link_event;
          put_i32 b link;
          Buffer.add_uint8 b (if up then 1 else 0)
      | Stats -> Buffer.add_uint8 b tag_stats
      | Health -> Buffer.add_uint8 b tag_health
      | Reload -> Buffer.add_uint8 b tag_reload)

let status_to_int = function Path_ok -> 0 | Unknown_pair -> 1 | No_usable_path -> 2

let encode_response r =
  with_frame (fun b ->
      match r with
      | Path_reply { status; level; nodes } ->
          check_range "level" level 0 u8_max;
          let count = List.length nodes in
          check_range "node count" count 0 u16_max;
          Buffer.add_uint8 b tag_path_reply;
          Buffer.add_uint8 b (status_to_int status);
          Buffer.add_uint8 b level;
          Buffer.add_uint16_be b count;
          List.iter
            (fun node ->
              check_range "node" node 0 i32_max;
              put_i32 b node)
            nodes
      | Ack { version } ->
          Buffer.add_uint8 b tag_ack;
          put_i64 b version
      | Stats_reply s ->
          check_range "levels" s.s_levels 0 u8_max;
          Buffer.add_uint8 b tag_stats_reply;
          put_i64 b s.s_version;
          put_i64 b s.s_swaps;
          put_i64 b s.s_served;
          put_f64 b s.s_uptime_s;
          Buffer.add_uint8 b s.s_levels;
          put_f64 b s.s_power_percent
      | Health_reply { healthy; version } ->
          Buffer.add_uint8 b tag_health_reply;
          Buffer.add_uint8 b (if healthy then 1 else 0);
          put_i64 b version
      | Error_reply { code; message } ->
          check_range "error code" code 0 u8_max;
          check_range "message length" (String.length message) 0 u16_max;
          Buffer.add_uint8 b tag_error_reply;
          Buffer.add_uint8 b code;
          Buffer.add_uint16_be b (String.length message);
          Buffer.add_string b message)

(* ----------------------------- decoding ---------------------------- *)

(* Frame header: on success returns (payload offset, payload length).
   A negative int32 length is an unsigned value above 2 GiB — report the
   unsigned magnitude as oversized rather than calling it empty. *)
let decode_header ~pos s =
  let n = String.length s in
  if pos < 0 || pos > n then Error (Bad_payload "start offset outside the buffer")
  else if n - pos < header_length then Error Truncated
  else
    let m = String.get_int32_be s pos in
    if not (Int32.equal m magic) then Error (Bad_magic m)
    else
      let v = String.get_uint8 s (pos + 4) in
      if v <> version then Error (Bad_version v)
      else
        let len = Int32.to_int (String.get_int32_be s (pos + 5)) land 0xffff_ffff in
        if len > max_payload then Error (Oversized len)
        else if len < 1 then Error (Bad_payload "empty payload")
        else if n - pos - header_length < len then Error Truncated
        else Ok (pos + header_length, len)

let get_i32 s off = Int32.to_int (String.get_int32_be s off)
let get_i64 s off = Int64.to_int (String.get_int64_be s off)
let get_f64 s off = Int64.float_of_bits (String.get_int64_be s off)

let get_bool s off =
  match String.get_uint8 s off with
  | 0 -> Ok false
  | 1 -> Ok true
  | v -> Error (Bad_payload (Printf.sprintf "boolean byte %d" v))

(* Payload lengths by tag (beyond the tag byte itself). *)
let len_path_query = 8
let len_demand_update = 16
let len_link_event = 5
let len_ack = 8
let len_stats_reply = 41
let len_health_reply = 9

let expect_len what declared expected k =
  if declared <> expected then
    Error
      (Bad_payload
         (Printf.sprintf "%s payload is %d bytes, expected %d" what (declared - 1) (expected - 1)))
  else k ()

let decode_request ?(pos = 0) s =
  match decode_header ~pos s with
  | Error e -> Error e
  | Ok (off, len) -> (
      let next = off + len in
      let body = off + 1 in
      let fin req = Ok (req, next) in
      match String.get_uint8 s off with
      | t when t = tag_path_query ->
          expect_len "path_query" len (1 + len_path_query) (fun () ->
              fin (Path_query { origin = get_i32 s body; dest = get_i32 s (body + 4) }))
      | t when t = tag_demand_update ->
          expect_len "demand_update" len (1 + len_demand_update) (fun () ->
              fin
                (Demand_update
                   { origin = get_i32 s body; dest = get_i32 s (body + 4); bps = get_f64 s (body + 8) }))
      | t when t = tag_link_event ->
          expect_len "link_event" len (1 + len_link_event) (fun () ->
              match get_bool s (body + 4) with
              | Error e -> Error e
              | Ok up -> fin (Link_event { link = get_i32 s body; up }))
      | t when t = tag_stats -> expect_len "stats" len 1 (fun () -> fin Stats)
      | t when t = tag_health -> expect_len "health" len 1 (fun () -> fin Health)
      | t when t = tag_reload -> expect_len "reload" len 1 (fun () -> fin Reload)
      | t -> Error (Bad_tag t))

let status_of_int = function
  | 0 -> Ok Path_ok
  | 1 -> Ok Unknown_pair
  | 2 -> Ok No_usable_path
  | v -> Error (Bad_payload (Printf.sprintf "path status byte %d" v))

let decode_response ?(pos = 0) s =
  match decode_header ~pos s with
  | Error e -> Error e
  | Ok (off, len) -> (
      let next = off + len in
      let body = off + 1 in
      let fin resp = Ok (resp, next) in
      match String.get_uint8 s off with
      | t when t = tag_path_reply ->
          if len < 5 then Error (Bad_payload "path reply shorter than its fixed fields")
          else begin
            match status_of_int (String.get_uint8 s body) with
            | Error e -> Error e
            | Ok status ->
                let level = String.get_uint8 s (body + 1) in
                let count = String.get_uint16_be s (body + 2) in
                if len <> 5 + (4 * count) then
                  Error (Bad_payload (Printf.sprintf "path reply declares %d nodes" count))
                else
                  let nodes = List.init count (fun i -> get_i32 s (body + 4 + (4 * i))) in
                  fin (Path_reply { status; level; nodes })
          end
      | t when t = tag_ack ->
          expect_len "ack" len (1 + len_ack) (fun () -> fin (Ack { version = get_i64 s body }))
      | t when t = tag_stats_reply ->
          expect_len "stats reply" len (1 + len_stats_reply) (fun () ->
              fin
                (Stats_reply
                   {
                     s_version = get_i64 s body;
                     s_swaps = get_i64 s (body + 8);
                     s_served = get_i64 s (body + 16);
                     s_uptime_s = get_f64 s (body + 24);
                     s_levels = String.get_uint8 s (body + 32);
                     s_power_percent = get_f64 s (body + 33);
                   }))
      | t when t = tag_health_reply ->
          expect_len "health reply" len (1 + len_health_reply) (fun () ->
              match get_bool s body with
              | Error e -> Error e
              | Ok healthy -> fin (Health_reply { healthy; version = get_i64 s (body + 1) }))
      | t when t = tag_error_reply ->
          if len < 4 then Error (Bad_payload "error reply shorter than its fixed fields")
          else
            let code = String.get_uint8 s body in
            let mlen = String.get_uint16_be s (body + 1) in
            if len <> 4 + mlen then
              Error (Bad_payload (Printf.sprintf "error reply declares %d message bytes" mlen))
            else fin (Error_reply { code; message = String.sub s (body + 3) mlen })
      | t -> Error (Bad_tag t))

(* ------------------------------ crc -------------------------------- *)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xedb88320), computed
   bitwise so the module keeps zero toplevel mutable state. Journal
   records are short and fsync-bound, so the table-free form costs
   nothing measurable. *)
let crc32 s =
  let poly = 0xedb88320 in
  let crc = ref 0xffff_ffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _bit = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor poly else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xffff_ffff)

(* ------------------------------ misc ------------------------------- *)

let request_type = function
  | Path_query _ -> "path_query"
  | Demand_update _ -> "demand_update"
  | Link_event _ -> "link_event"
  | Stats -> "stats"
  | Health -> "health"
  | Reload -> "reload"
