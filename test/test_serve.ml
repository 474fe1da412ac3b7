(* Tests for the serve subsystem: QCheck round-trip laws for every wire
   frame shape, malformed-frame rejection, golden frame bytes, the
   prometheus-page renderer identity shared by `respctl stats` and the
   scrape endpoint, and a loopback integration session against a live
   server (query / update / link event / reload / drain). *)

module W = Serve.Wire

(* Structural equality on frames, with bit equality on floats so that NaN
   payloads (and signed zeros) satisfy the round-trip laws exactly as
   transmitted. *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_request a b =
  match (a, b) with
  | W.Path_query x, W.Path_query y -> x.origin = y.origin && x.dest = y.dest
  | W.Demand_update x, W.Demand_update y ->
      x.origin = y.origin && x.dest = y.dest && float_eq x.bps y.bps
  | W.Link_event x, W.Link_event y -> x.link = y.link && x.up = y.up
  | W.Stats, W.Stats | W.Health, W.Health | W.Reload, W.Reload -> true
  | _ -> false

let equal_response a b =
  match (a, b) with
  | W.Path_reply x, W.Path_reply y ->
      x.status = y.status && x.level = y.level && List.equal Int.equal x.nodes y.nodes
  | W.Ack x, W.Ack y -> x.version = y.version
  | W.Stats_reply x, W.Stats_reply y ->
      x.s_version = y.s_version && x.s_swaps = y.s_swaps && x.s_served = y.s_served
      && float_eq x.s_uptime_s y.s_uptime_s
      && x.s_levels = y.s_levels
      && float_eq x.s_power_percent y.s_power_percent
  | W.Health_reply x, W.Health_reply y -> x.healthy = y.healthy && x.version = y.version
  | W.Error_reply x, W.Error_reply y -> x.code = y.code && String.equal x.message y.message
  | _ -> false

(* ----------------------------- generators ---------------------------- *)

let id_gen = QCheck.Gen.int_range 0 0x7fff_ffff
let version_gen = QCheck.Gen.int_range 0 0x3fff_ffff_ffff
let finite_float_gen = QCheck.Gen.float_range (-1e15) 1e15

let request_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun origin dest -> W.Path_query { origin; dest }) id_gen id_gen;
      map3
        (fun origin dest bps -> W.Demand_update { origin; dest; bps })
        id_gen id_gen finite_float_gen;
      map2 (fun link up -> W.Link_event { link; up }) id_gen bool;
      return W.Stats;
      return W.Health;
      return W.Reload;
    ]

let status_gen = QCheck.Gen.oneofl [ W.Path_ok; W.Unknown_pair; W.No_usable_path ]

let response_gen =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun status level nodes -> W.Path_reply { status; level; nodes })
        status_gen (int_range 0 255)
        (list_size (int_range 0 20) id_gen);
      map (fun version -> W.Ack { version }) version_gen;
      ( version_gen >>= fun s_version ->
        version_gen >>= fun s_swaps ->
        version_gen >>= fun s_served ->
        finite_float_gen >>= fun s_uptime_s ->
        int_range 0 255 >>= fun s_levels ->
        finite_float_gen >>= fun s_power_percent ->
        return
          (W.Stats_reply
             { W.s_version; s_swaps; s_served; s_uptime_s; s_levels; s_power_percent }) );
      map2 (fun healthy version -> W.Health_reply { healthy; version }) bool version_gen;
      map2
        (fun code message -> W.Error_reply { code; message })
        (int_range 0 255)
        (string_size ~gen:printable (int_range 0 100));
    ]

(* --------------------------- round-trip laws -------------------------- *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request decode (encode r) = r, whole frame consumed" ~count:500
    (QCheck.make request_gen) (fun req ->
      let s = W.encode_request req in
      match W.decode_request s with
      | Ok (req', consumed) -> consumed = String.length s && equal_request req req'
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response decode (encode r) = r, whole frame consumed" ~count:500
    (QCheck.make response_gen) (fun resp ->
      let s = W.encode_response resp in
      match W.decode_response s with
      | Ok (resp', consumed) -> consumed = String.length s && equal_response resp resp'
      | Error _ -> false)

(* Streaming invariant: two frames back to back decode independently via
   the returned offset. *)
let prop_request_stream =
  QCheck.Test.make ~name:"two concatenated requests drain via ?pos" ~count:200
    (QCheck.make QCheck.Gen.(pair request_gen request_gen)) (fun (a, b) ->
      let s = W.encode_request a ^ W.encode_request b in
      match W.decode_request s with
      | Error _ -> false
      | Ok (a', next) -> (
          match W.decode_request ~pos:next s with
          | Error _ -> false
          | Ok (b', fin) ->
              equal_request a a' && equal_request b b' && fin = String.length s))

(* Total safety: the decoders never raise, whatever the bytes. *)
let prop_decode_never_raises =
  QCheck.Test.make ~name:"decoders are total on junk" ~count:1000
    QCheck.(string_gen QCheck.Gen.char) (fun s ->
      (match W.decode_request s with Ok _ -> () | Error _ -> ());
      (match W.decode_response s with Ok _ -> () | Error _ -> ());
      true)

(* ---------------------------- rejection ------------------------------ *)

(* Raw frame builder so the tests can forge headers the encoder refuses
   to produce. *)
let forge ?(magic = W.magic) ?(version = W.version) ?length payload =
  let b = Buffer.create 32 in
  Buffer.add_int32_be b magic;
  Buffer.add_uint8 b version;
  let len = match length with Some l -> l | None -> String.length payload in
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_string b payload;
  Buffer.contents b

let err_testable = Alcotest.testable (Fmt.of_to_string W.error_to_string) ( = )

let check_reject name frame expected =
  match W.decode_request frame with
  | Ok _ -> Alcotest.failf "%s: decoded instead of rejecting" name
  | Error e -> Alcotest.check err_testable name expected e

let test_truncated_prefixes () =
  let full = W.encode_request (W.Demand_update { origin = 1; dest = 2; bps = 2.5e9 }) in
  for len = 0 to String.length full - 1 do
    check_reject
      (Printf.sprintf "prefix of %d bytes" len)
      (String.sub full 0 len) W.Truncated
  done;
  Alcotest.(check bool) "full frame decodes" true
    (match W.decode_request full with Ok _ -> true | Error _ -> false)

let test_bad_magic () =
  let frame = forge ~magic:0x52535000l "\x04" in
  check_reject "corrupted magic" frame (W.Bad_magic 0x52535000l)

let test_bad_version () =
  check_reject "future version" (forge ~version:2 "\x04") (W.Bad_version 2)

let test_oversized () =
  let frame = forge ~length:(W.max_payload + 1) "\x04" in
  check_reject "payload above the 1 MiB bound" frame (W.Oversized (W.max_payload + 1))

let test_bad_tag () =
  check_reject "unassigned tag" (forge "\x7f") (W.Bad_tag 0x7f)

let test_bad_payload () =
  (* A path_query tag with a link_event-sized body. *)
  match W.decode_request (forge "\x01\x00\x00\x00\x03") with
  | Error (W.Bad_payload _) -> ()
  | Error e -> Alcotest.failf "expected Bad_payload, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "short path_query body decoded"

let test_empty_payload () =
  match W.decode_request (forge "") with
  | Error (W.Bad_payload _) -> ()
  | Error e -> Alcotest.failf "expected Bad_payload, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "empty payload decoded"

let test_encode_validation () =
  Alcotest.check_raises "negative node id"
    (Invalid_argument "Serve.Wire: origin -1 outside [0, 2147483647]") (fun () ->
      ignore (W.encode_request (W.Path_query { origin = -1; dest = 0 })));
  (match
     ignore (W.encode_request (W.Demand_update { origin = 0; dest = 1; bps = Float.nan }))
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN demand encoded");
  match
    ignore (W.encode_response (W.Path_reply { status = W.Path_ok; level = 256; nodes = [] }))
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "level 256 encoded"

(* ------------------------------ golden ------------------------------- *)

(* The committed fixture pins the byte layout: a codec change that still
   satisfies the round-trip laws (e.g. flipping endianness) fails here. *)

let golden_frames =
  [
    ("path_query", `Req (W.Path_query { origin = 3; dest = 17 }));
    ("demand_update", `Req (W.Demand_update { origin = 1; dest = 2; bps = 2.5e9 }));
    ("link_event", `Req (W.Link_event { link = 9; up = false }));
    ("stats", `Req W.Stats);
    ("health", `Req W.Health);
    ("reload", `Req W.Reload);
    ( "path_reply",
      `Resp (W.Path_reply { status = W.Path_ok; level = 2; nodes = [ 0; 4; 7; 21 ] }) );
    ("path_reply_no_path", `Resp (W.Path_reply { status = W.No_usable_path; level = 0; nodes = [] }));
    ("ack", `Resp (W.Ack { version = 5 }));
    ( "stats_reply",
      `Resp
        (W.Stats_reply
           {
             W.s_version = 7;
             s_swaps = 3;
             s_served = 12345;
             s_uptime_s = 12.5;
             s_levels = 2;
             s_power_percent = 61.25;
           }) );
    ("health_reply", `Resp (W.Health_reply { healthy = true; version = 9 }));
    ("error_reply", `Resp (W.Error_reply { code = 2; message = "bad link" }));
  ]

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

let of_hex h =
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* `dune runtest` runs test binaries from test/, `dune exec` from the
   project root; accept either working directory. *)
let fixture_path name =
  if Sys.file_exists name then name else Filename.concat "test" name

let read_fixture path =
  In_channel.with_open_text (fixture_path path) (fun ic ->
      In_channel.input_lines ic
      |> List.filter_map (fun line ->
             match String.index_opt line ' ' with
             | None -> None
             | Some sp ->
                 Some
                   ( String.sub line 0 sp,
                     String.sub line (sp + 1) (String.length line - sp - 1) )))

let test_golden_frames () =
  let fixture = read_fixture "golden/wire-frames.hex" in
  Alcotest.(check int) "fixture covers every frame shape" (List.length golden_frames)
    (List.length fixture);
  List.iter
    (fun (name, value) ->
      match List.assoc_opt name fixture with
      | None -> Alcotest.failf "fixture line missing for %s" name
      | Some hex ->
          let encoded =
            match value with
            | `Req r -> W.encode_request r
            | `Resp r -> W.encode_response r
          in
          Alcotest.(check string) (name ^ " bytes") hex (to_hex encoded);
          let ok =
            match value with
            | `Req r -> (
                match W.decode_request (of_hex hex) with
                | Ok (r', _) -> equal_request r r'
                | Error _ -> false)
            | `Resp r -> (
                match W.decode_response (of_hex hex) with
                | Ok (r', _) -> equal_response r r'
                | Error _ -> false)
          in
          Alcotest.(check bool) (name ^ " decodes back") true ok)
    golden_frames

(* --------------------------- prometheus page -------------------------- *)

(* `respctl stats --metrics prom` and the daemon's GET /metrics both call
   Obs.Export.prometheus_page: one renderer, so the two surfaces cannot
   drift. The identity is pinned against the underlying exporter here. *)
let test_prometheus_page_identity () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Serve.Metrics.observe_request W.Stats;
      let page = Obs.Export.prometheus_page () in
      let direct = Obs.Export.to_prometheus (Obs.Registry.snapshot Obs.Registry.default) in
      Alcotest.(check string) "single renderer behind both surfaces" direct page;
      Alcotest.(check bool) "page mentions the serve counters" true
        (let needle = "serve_requests_total" in
         let nh = String.length page and nn = String.length needle in
         let rec at i = i + nn <= nh && (String.sub page i nn = needle || at (i + 1)) in
         at 0))

(* ---------------------------- loopback ------------------------------- *)

let call_ok client req =
  match Serve.Client.call client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "call failed: %s" e

(* Encoded Path_reply bytes for each pair, the comparison key for the
   reload-equivalence check. *)
let answers client pairs =
  List.map
    (fun (origin, dest) -> W.encode_response (call_ok client (W.Path_query { origin; dest })))
    pairs

let test_loopback_session () =
  Obs.set_enabled true;
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.5 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let state = Serve.State.create g power ~pairs ~demand in
  let server =
    Serve.Server.start
      ~config:{ Serve.Server.default_config with port = 0; http_port = 0; workers = 2 }
      state
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.State.stop state;
      Obs.set_enabled false)
    (fun () ->
      let port = Serve.Server.port server in
      match Serve.Client.connect ~port () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () ->
              let probe = List.filteri (fun i _ -> i < 30) pairs in
              let origin, dest = List.hd probe in
              (* Path queries answer with installed paths. *)
              (match call_ok client (W.Path_query { origin; dest }) with
              | W.Path_reply { status = W.Path_ok; nodes; _ } ->
                  Alcotest.(check bool) "path starts at the origin" true
                    (match nodes with n :: _ -> n = origin | [] -> false)
              | resp ->
                  Alcotest.failf "expected a usable path, got %s"
                    (W.error_to_string (W.Bad_payload (W.encode_response resp))));
              let before = answers client probe in
              (* An equivalent-snapshot reload must not change any answer. *)
              (match call_ok client W.Reload with
              | W.Ack { version } ->
                  Alcotest.(check bool) "reload advanced the snapshot" true (version >= 1)
              | _ -> Alcotest.fail "reload not acknowledged");
              let after = answers client probe in
              List.iteri
                (fun i (b, a) ->
                  Alcotest.(check string)
                    (Printf.sprintf "pair %d byte-identical across reload" i)
                    (to_hex b) (to_hex a))
                (List.combine before after);
              (* Demand updates: staged on valid pairs, refused on the
                 diagonal. *)
              (match call_ok client (W.Demand_update { origin; dest; bps = 1e9 }) with
              | W.Ack _ -> ()
              | _ -> Alcotest.fail "demand update not acknowledged");
              (match call_ok client (W.Demand_update { origin; dest = origin; bps = 1e9 }) with
              | W.Error_reply { code; _ } ->
                  Alcotest.(check int) "diagonal refused" W.err_bad_argument code
              | _ -> Alcotest.fail "diagonal demand accepted");
              (* Link events flip failover state and are reversible. *)
              (match call_ok client (W.Link_event { link = 0; up = false }) with
              | W.Ack _ -> ()
              | _ -> Alcotest.fail "link-down not acknowledged");
              (match call_ok client (W.Path_query { origin; dest }) with
              | W.Path_reply _ -> ()
              | _ -> Alcotest.fail "query during link failure not answered");
              (match call_ok client (W.Link_event { link = 0; up = true }) with
              | W.Ack _ -> ()
              | _ -> Alcotest.fail "link-up not acknowledged");
              (* Out-of-range link refused. *)
              (match call_ok client (W.Link_event { link = 100000; up = false }) with
              | W.Error_reply { code; _ } ->
                  Alcotest.(check int) "bad link refused" W.err_bad_argument code
              | _ -> Alcotest.fail "out-of-range link accepted");
              (* Stats and health reflect the session. *)
              (match call_ok client W.Stats with
              | W.Stats_reply s ->
                  Alcotest.(check bool) "served counted" true (s.W.s_served > 0);
                  Alcotest.(check bool) "power percent sane" true
                    (s.W.s_power_percent >= 0.0 && s.W.s_power_percent <= 100.0)
              | _ -> Alcotest.fail "stats not answered");
              (match call_ok client W.Health with
              | W.Health_reply { healthy; _ } ->
                  Alcotest.(check bool) "healthy" true healthy
              | _ -> Alcotest.fail "health not answered");
              (* Scrape endpoint serves the shared prometheus page. *)
              match
                Serve.Client.http_get ~port:(Serve.Server.http_port server) ~path:"/metrics" ()
              with
              | Ok body -> Alcotest.(check bool) "scrape non-empty" true (String.length body > 0)
              | Error e -> Alcotest.failf "scrape: %s" e))

(* Shutdown-path regression (the exit sequence `respctld --smoke` ends
   with): [stop] joins the accepter and the worker pool without
   deadlocking even while a client connection is live, is idempotent,
   and really tears the plane down — a bounded fresh connect is refused
   and a call on the drained connection errors instead of hanging. *)
let test_shutdown_path () =
  Obs.set_enabled true;
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:11 ~fraction:0.3 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 2.0) () in
  let state = Serve.State.create g power ~pairs ~demand in
  let server =
    Serve.Server.start
      ~config:{ Serve.Server.default_config with port = 0; http_port = 0; workers = 2 }
      state
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.State.stop state;
      Obs.set_enabled false)
    (fun () ->
      let port = Serve.Server.port server in
      let origin, dest = List.hd pairs in
      match Serve.Client.connect ~port () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () ->
              (match call_ok client (W.Path_query { origin; dest }) with
              | W.Path_reply _ -> ()
              | _ -> Alcotest.fail "warm-up query not answered");
              (* Stop with the connection still open: must return, and a
                 second stop must be a no-op rather than a second join. *)
              Serve.Server.stop server;
              Serve.Server.stop server;
              Alcotest.(check bool) "served at least the warm-up" true
                (Serve.Server.served server >= 1);
              (match Serve.Client.connect ~timeout_s:0.5 ~port () with
              | Ok c2 ->
                  Serve.Client.close c2;
                  Alcotest.fail "post-stop connect accepted"
              | Error _ -> ());
              match Serve.Client.call ~timeout_s:1.0 client (W.Path_query { origin; dest }) with
              | Ok _ -> Alcotest.fail "call after shutdown answered"
              | Error _ -> ()))

(* -------------------------- mutated goldens -------------------------- *)

(* Totality under realistic damage: flip a byte and/or chop the tail of
   a known-good frame (what the chaos proxy does on the wire) and both
   decoders must return [Ok] or a typed error without raising and
   without consuming past the buffer. Pure random strings rarely pass
   the magic check, so this drives the decoders through the deep
   payload-parsing branches the random fuzz misses. *)
let golden_frame_bytes =
  Array.of_list
    (List.map
       (fun (_, v) ->
         match v with `Req r -> W.encode_request r | `Resp r -> W.encode_response r)
       golden_frames)

let prop_mutated_golden_total =
  let gen =
    let open QCheck.Gen in
    int_range 0 (Array.length golden_frame_bytes - 1) >>= fun fi ->
    let n = String.length golden_frame_bytes.(fi) in
    int_range 0 (n - 1) >>= fun pos ->
    int_range 1 255 >>= fun flip ->
    int_range 0 4 >>= fun chop -> return (fi, pos, flip, chop)
  in
  QCheck.Test.make ~name:"mutated golden frames decode totally, no over-read" ~count:1000
    (QCheck.make gen) (fun (fi, pos, flip, chop) ->
      let s = golden_frame_bytes.(fi) in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip land 0xff));
      let keep = Int.max 0 (Bytes.length b - chop) in
      let s = Bytes.sub_string b 0 keep in
      let total_on decode =
        match decode s with
        | Ok ((_ : W.request), consumed) -> consumed >= 0 && consumed <= String.length s
        | Error (_ : W.error) -> true
      in
      let total_on_resp () =
        match W.decode_response s with
        | Ok ((_ : W.response), consumed) -> consumed >= 0 && consumed <= String.length s
        | Error (_ : W.error) -> true
      in
      total_on W.decode_request && total_on_resp ())

let test_crc32 () =
  (* The standard CRC-32 check value (reflected, poly 0xedb88320). *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (W.crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (W.crc32 "");
  Alcotest.(check bool) "one-bit difference changes the sum" true
    (not (Int32.equal (W.crc32 "journal-record") (W.crc32 "journal-recorc")))

let test_error_code_names () =
  List.iter
    (fun (code, name) -> Alcotest.(check string) name name (W.error_code_name code))
    [
      (W.err_malformed, "malformed");
      (W.err_bad_argument, "bad_argument");
      (W.err_shutting_down, "shutting_down");
      (W.err_overloaded, "overloaded");
      (W.err_deadline, "deadline");
      (99, "unknown");
    ]

(* ------------------------------- guard ------------------------------- *)

module G = Serve.Guard

let test_guard_config_validation () =
  let reject name cfg =
    match G.create cfg with
    | exception Invalid_argument _ -> ()
    | (_ : G.t) -> Alcotest.failf "%s accepted" name
  in
  reject "negative max_inflight" { G.default with G.max_inflight = -1 };
  reject "NaN request budget" { G.default with G.request_budget_s = Float.nan };
  reject "degrade_low of zero" { G.default with G.degrade_low = 0.0 };
  reject "degrade_low above one" { G.default with G.degrade_low = 1.5 }

(* Whether an admission guard is shedding, read from its exported gauge
   (which moves only while observability is on). *)
let guard_degraded () = Obs.Metric.Gauge.value Serve.Metrics.guard_degraded = 1.0

let test_guard_hysteresis () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let entries () = Obs.Metric.Counter.value Serve.Metrics.degraded_entries in
      let entries0 = entries () in
      let cfg = { G.default with G.max_inflight = 4; degrade_low = 0.5; recover_after_s = 0.5 } in
      let t = G.create cfg in
      (match G.admit t ~now:0.0 with
      | G.Admit -> ()
      | G.Shed -> Alcotest.fail "shed an idle guard");
      Alcotest.(check (float 0.0)) "normal at rest" entries0 (entries ());
      for _ = 1 to 4 do
        G.enter t
      done;
      Alcotest.(check int) "inflight tracked" 4 (G.inflight t);
      (match G.admit t ~now:1.0 with
      | G.Shed -> ()
      | G.Admit -> Alcotest.fail "admitted at the ceiling");
      Alcotest.(check bool) "degraded gauge raised at the ceiling" true (guard_degraded ());
      Alcotest.(check (float 0.0)) "one degraded entry" (entries0 +. 1.0) (entries ());
      (* Above the low watermark (0.5 * 4 = 2): hysteresis keeps shedding
         even though we are back under the ceiling. *)
      G.leave t;
      (match G.admit t ~now:2.0 with
      | G.Shed -> ()
      | G.Admit -> Alcotest.fail "admitted above the low watermark while degraded");
      (* Below the watermark the guard admits again but stays Degraded
         until the low streak outlasts recover_after_s. *)
      G.leave t;
      G.leave t;
      (match G.admit t ~now:3.0 with
      | G.Admit -> ()
      | G.Shed -> Alcotest.fail "shed below the low watermark");
      Alcotest.(check bool) "still degraded mid-streak" true (guard_degraded ());
      (match G.admit t ~now:3.4 with
      | G.Admit -> ()
      | G.Shed -> Alcotest.fail "shed mid-streak");
      Alcotest.(check bool) "streak not yet complete" true (guard_degraded ());
      (match G.admit t ~now:3.6 with
      | G.Admit -> ()
      | G.Shed -> Alcotest.fail "shed at recovery");
      Alcotest.(check bool) "gauge cleared after a sustained low streak" false (guard_degraded ());
      G.leave t;
      (* A fresh spike re-enters Degraded: the machine is reusable. *)
      for _ = 1 to 4 do
        G.enter t
      done;
      (match G.admit t ~now:4.0 with
      | G.Shed -> ()
      | G.Admit -> Alcotest.fail "second spike admitted");
      Alcotest.(check bool) "second degradation" true (guard_degraded ());
      Alcotest.(check (float 0.0)) "two degraded entries" (entries0 +. 2.0) (entries ()))

let test_guard_deadlines_and_conns () =
  let t = G.create { G.default with G.request_budget_s = 1.0; max_conns = 2 } in
  let deadline = G.deadline t ~now:10.0 in
  Alcotest.(check bool) "not expired inside the budget" false
    (G.expired ~deadline ~now:10.5);
  Alcotest.(check bool) "expired past the budget" true (G.expired ~deadline ~now:11.5);
  let unlimited = G.create { G.default with G.request_budget_s = 0.0 } in
  Alcotest.(check bool) "zero budget never expires" false
    (G.expired ~deadline:(G.deadline unlimited ~now:10.0) ~now:1.0e12);
  Alcotest.(check bool) "connection cap admits to the limit" true
    (G.conn_opened t && G.conn_opened t);
  Alcotest.(check bool) "third connection refused" false (G.conn_opened t);
  G.conn_closed t;
  Alcotest.(check bool) "freed slot admits again" true (G.conn_opened t);
  Alcotest.(check int) "conns tracked" 2 (G.conns t)

(* ------------------------------ journal ------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "test-serve" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let journal_open_ok path =
  match Serve.Journal.open_ path with
  | Ok j -> j
  | Error e -> Alcotest.failf "journal open: %s" e

let append_ok j r =
  match Serve.Journal.append j r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "journal append: %s" e

let req_testable = Alcotest.testable (Fmt.of_to_string (fun r -> to_hex (W.encode_request r))) equal_request

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let du = W.Demand_update { origin = 3; dest = 9; bps = 1.5e9 } in
      let le = W.Link_event { link = 4; up = false } in
      let j = journal_open_ok path in
      Alcotest.(check (list req_testable)) "fresh journal is empty" [] (Serve.Journal.entries j);
      Alcotest.(check bool) "fresh journal is whole" false (Serve.Journal.torn j);
      append_ok j du;
      append_ok j le;
      (match Serve.Journal.append j W.Stats with
      | exception Invalid_argument _ -> ()
      | Ok () | Error _ -> Alcotest.fail "non-journalable request accepted");
      Serve.Journal.close j;
      let j2 = journal_open_ok path in
      Alcotest.(check (list req_testable)) "records replay in order" [ du; le ]
        (Serve.Journal.entries j2);
      (* Compaction replaces the contents; appends continue after it. *)
      let du2 = W.Demand_update { origin = 1; dest = 2; bps = 7.0e8 } in
      (match Serve.Journal.compact j2 [ du2 ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "compact: %s" e);
      append_ok j2 le;
      Serve.Journal.close j2;
      let j3 = journal_open_ok path in
      Alcotest.(check (list req_testable)) "checkpoint plus tail" [ du2; le ]
        (Serve.Journal.entries j3);
      Serve.Journal.close j3)

let test_journal_torn_tail () =
  with_temp_journal (fun path ->
      let du = W.Demand_update { origin = 3; dest = 9; bps = 1.5e9 } in
      let j = journal_open_ok path in
      append_ok j du;
      Serve.Journal.close j;
      (* A half-written record: the length word promises 32 bytes, the
         crash left nine. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x00\x00\x00\x20torn-tail";
      close_out oc;
      let j2 = journal_open_ok path in
      Alcotest.(check bool) "torn tail detected" true (Serve.Journal.torn j2);
      Alcotest.(check (list req_testable)) "whole records survive" [ du ]
        (Serve.Journal.entries j2);
      (* The truncation put the file back on a record boundary: appends
         after a torn open replay cleanly. *)
      let le = W.Link_event { link = 0; up = true } in
      append_ok j2 le;
      Serve.Journal.close j2;
      let j3 = journal_open_ok path in
      Alcotest.(check bool) "healed after truncation" false (Serve.Journal.torn j3);
      Alcotest.(check (list req_testable)) "append after heal" [ du; le ]
        (Serve.Journal.entries j3);
      Serve.Journal.close j3)

let test_journal_corrupt_record () =
  with_temp_journal (fun path ->
      let j = journal_open_ok path in
      append_ok j (W.Demand_update { origin = 3; dest = 9; bps = 1.5e9 });
      append_ok j (W.Link_event { link = 4; up = false });
      Serve.Journal.close j;
      (* Flip one payload byte of the first record: the CRC must reject
         it, and everything from the corruption on is dropped. *)
      let ic = open_in_bin path in
      let image = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string image in
      Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let j2 = journal_open_ok path in
      Alcotest.(check bool) "corruption detected" true (Serve.Journal.torn j2);
      Alcotest.(check (list req_testable)) "corrupt suffix dropped" []
        (Serve.Journal.entries j2);
      Serve.Journal.close j2)

(* ------------------------- crash-restart drill ------------------------ *)

(* Everything resolve-visible, serialized: "byte-identical" below means
   the wire bytes of every answer plus the evaluation figures (power as
   IEEE bits) — the snapshot version is excluded, a restart resets it. *)
let state_bytes st pairs =
  let b = Buffer.create 1024 in
  List.iter
    (fun (origin, dest) ->
      let status, level, nodes = Serve.State.resolve st ~origin ~dest in
      Buffer.add_string b (W.encode_response (W.Path_reply { status; level; nodes })))
    pairs;
  let _version, levels, power_percent = Serve.State.figures st in
  Buffer.add_string b (string_of_int levels);
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float power_percent));
  Buffer.contents b

let test_journal_restart_identity () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      with_temp_journal (fun path ->
          let g = Topo.Geant.make () in
          let power = Power.Model.cisco12000 g in
          let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.5 in
          let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
          let appends0 = Obs.Metric.Counter.value Serve.Metrics.journal_appends in
          let compactions0 = Obs.Metric.Counter.value Serve.Metrics.journal_compactions in
          let step = Eutil.Units.to_float (Eutil.Units.gbps 0.2) in
          let b1 =
            let j = journal_open_ok path in
            let s1 = Serve.State.create ~journal:j g power ~pairs ~demand in
            List.iteri
              (fun i (origin, dest) ->
                if i < 3 then
                  match Serve.State.update_demand s1 ~origin ~dest ~bps:(step *. float_of_int (i + 1)) with
                  | Ok (_ : int) -> ()
                  | Error e -> Alcotest.failf "update: %s" e)
              pairs;
            (match Serve.State.set_link s1 ~link:0 ~up:false with
            | Ok (_ : int) -> ()
            | Error e -> Alcotest.failf "set_link: %s" e);
            ignore (Serve.State.reload s1);
            let b = state_bytes s1 pairs in
            Serve.State.stop s1;
            b
          in
          Alcotest.(check bool) "updates journaled" true
            (Obs.Metric.Counter.value Serve.Metrics.journal_appends >= appends0 +. 4.0);
          Alcotest.(check bool) "checkpoint ran on swap" true
            (Obs.Metric.Counter.value Serve.Metrics.journal_compactions > compactions0);
          (* Simulated kill -9 + restart: same boot matrix, replay the
             journal the crash left behind. *)
          let j2 = journal_open_ok path in
          Alcotest.(check bool) "clean journal after stop" false (Serve.Journal.torn j2);
          let s2 = Serve.State.create ~journal:j2 g power ~pairs ~demand in
          let b2 = state_bytes s2 pairs in
          Serve.State.stop s2;
          Alcotest.(check string) "restart rebuilds byte-identical state" (to_hex b1) (to_hex b2);
          (* And once more with a torn tail glued on: the half-written
             record must vanish without changing the outcome. *)
          let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
          output_string oc "\x00\x00\x00\x20torn-tail";
          close_out oc;
          let j3 = journal_open_ok path in
          Alcotest.(check bool) "torn tail detected on restart" true (Serve.Journal.torn j3);
          let s3 = Serve.State.create ~journal:j3 g power ~pairs ~demand in
          let b3 = state_bytes s3 pairs in
          Serve.State.stop s3;
          Alcotest.(check string) "torn tail dropped, state unchanged" (to_hex b1) (to_hex b3)))

(* ------------------------- server resilience ------------------------- *)

let serve_fixture ?(guard = G.default) f =
  Obs.set_enabled true;
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.5 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let state = Serve.State.create g power ~pairs ~demand in
  let server =
    Serve.Server.start
      ~config:{ Serve.Server.default_config with port = 0; http_port = 0; workers = 2; guard }
      state
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.State.stop state;
      Obs.set_enabled false)
    (fun () -> f server (Array.of_list pairs))

let request_port port req = Serve.Client.request ~connect_timeout_s:2.0 ~timeout_s:5.0 ~port req

let test_server_shedding () =
  serve_fixture
    ~guard:{ G.default with G.max_inflight = 2; degrade_low = 0.5; recover_after_s = 0.05 }
    (fun server pairs ->
      let port = Serve.Server.port server in
      let guard = Serve.Server.guard server in
      let origin, dest = pairs.(0) in
      let sheds0 = Obs.Metric.Counter.value Serve.Metrics.sheds in
      let retries0 = Obs.Metric.Counter.value Serve.Metrics.client_retries in
      (* Hold the in-flight ceiling from outside: every request the wire
         delivers while we sit at the ceiling must shed. *)
      G.enter guard;
      G.enter guard;
      (match request_port port (W.Path_query { origin; dest }) with
      | Ok (W.Error_reply { code; _ }) ->
          Alcotest.(check int) "overloaded error code" W.err_overloaded code
      | Ok _ -> Alcotest.fail "expected err_overloaded while at the ceiling"
      | Error e -> Alcotest.failf "shed request failed on transport: %s" e);
      Alcotest.(check bool) "shed counted" true
        (Obs.Metric.Counter.value Serve.Metrics.sheds > sheds0);
      Alcotest.(check bool) "guard degraded on the wire path" true (guard_degraded ());
      (* A retrying client treats the shed as transient and burns its
         budget — counted on the retry counter. *)
      (match
         Serve.Client.request ~connect_timeout_s:2.0 ~timeout_s:5.0
           ~retry:{ Serve.Client.attempts = 2; base_backoff_s = 0.01; max_backoff_s = 0.02; seed = 3 }
           ~port (W.Path_query { origin; dest })
       with
      | Ok (W.Error_reply { code; _ }) ->
          Alcotest.(check int) "still overloaded after retries" W.err_overloaded code
      | Ok _ -> Alcotest.fail "expected err_overloaded after retries"
      | Error e -> Alcotest.failf "retried request failed on transport: %s" e);
      Alcotest.(check bool) "retries counted" true
        (Obs.Metric.Counter.value Serve.Metrics.client_retries > retries0);
      (* Release the ceiling: after the hysteresis streak the guard
         recovers and requests flow again. *)
      G.leave guard;
      G.leave guard;
      (* Recovery needs a sustained low streak, so keep probing: early
         probes may be admitted (below the watermark) or shed (streak
         voided) while the guard is still Degraded. *)
      let rec recover tries =
        if tries > 200 then Alcotest.fail "server never recovered from Degraded"
        else begin
          (match request_port port (W.Path_query { origin; dest }) with
          | Ok (W.Path_reply _) -> ()
          | Ok (W.Error_reply { code; _ }) when code = W.err_overloaded -> ()
          | Ok _ -> Alcotest.fail "unexpected reply during recovery"
          | Error e -> Alcotest.failf "recovery probe failed: %s" e);
          if guard_degraded () then begin
            Unix.sleepf 0.02;
            recover (tries + 1)
          end
        end
      in
      recover 0;
      Alcotest.(check bool) "guard back to normal" false (guard_degraded ());
      match request_port port (W.Path_query { origin; dest }) with
      | Ok (W.Path_reply _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "recovered server did not serve")

let test_server_deadline () =
  serve_fixture
    ~guard:{ G.default with G.request_budget_s = 1.0e-9 }
    (fun server pairs ->
      let port = Serve.Server.port server in
      let origin, dest = pairs.(0) in
      let hits0 = Obs.Metric.Counter.value Serve.Metrics.deadline_hits in
      (match request_port port (W.Path_query { origin; dest }) with
      | Ok (W.Error_reply { code; _ }) ->
          Alcotest.(check int) "deadline error code" W.err_deadline code
      | Ok _ -> Alcotest.fail "expected err_deadline under a 1 ns budget"
      | Error e -> Alcotest.failf "deadline request failed on transport: %s" e);
      Alcotest.(check bool) "deadline hit counted" true
        (Obs.Metric.Counter.value Serve.Metrics.deadline_hits > hits0))

let test_server_conn_cap () =
  serve_fixture
    ~guard:{ G.default with G.max_conns = 1 }
    (fun server pairs ->
      let port = Serve.Server.port server in
      let origin, dest = pairs.(0) in
      let refused0 = Obs.Metric.Counter.value Serve.Metrics.conns_refused in
      match Serve.Client.connect ~port () with
      | Error e -> Alcotest.failf "first connect: %s" e
      | Ok c1 ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c1)
            (fun () ->
              (match Serve.Client.call c1 (W.Path_query { origin; dest }) with
              | Ok (W.Path_reply _) -> ()
              | Ok _ | Error _ -> Alcotest.fail "query on the admitted connection failed");
              (* The cap counts accepted binary sockets: the second TCP
                 connect lands, but the server closes it at admission. *)
              match Serve.Client.connect ~port () with
              | Error (_ : string) -> ()
              | Ok c2 ->
                  Fun.protect
                    ~finally:(fun () -> Serve.Client.close c2)
                    (fun () ->
                      (match Serve.Client.call ~timeout_s:2.0 c2 (W.Path_query { origin; dest }) with
                      | Error (_ : string) -> ()
                      | Ok _ -> Alcotest.fail "request served over the connection cap");
                      Alcotest.(check bool) "refusal counted" true
                        (Obs.Metric.Counter.value Serve.Metrics.conns_refused > refused0))))

let test_server_reaper () =
  serve_fixture
    ~guard:{ G.default with G.idle_timeout_s = 0.05; read_deadline_s = 0.05 }
    (fun server pairs ->
      let port = Serve.Server.port server in
      let origin, dest = pairs.(0) in
      let idle0 = Obs.Metric.Counter.value Serve.Metrics.reaped_idle in
      let slow0 = Obs.Metric.Counter.value Serve.Metrics.reaped_read_deadline in
      (* Slow loris over a raw socket: half a frame, then silence — the
         read deadline, not the idle timeout, must collect it. *)
      let loris = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect loris (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let frame = W.encode_request (W.Path_query { origin; dest }) in
      let half = String.length frame / 2 in
      ignore (Unix.write_substring loris frame 0 half);
      match Serve.Client.connect ~port () with
      | Error e ->
          Unix.close loris;
          Alcotest.failf "connect: %s" e
      | Ok idle_conn ->
          Fun.protect
            ~finally:(fun () ->
              Serve.Client.close idle_conn;
              try Unix.close loris with Unix.Unix_error (_e, _, _) -> ())
            (fun () ->
              (* Warm the idle connection so it is live, then go silent. *)
              (match Serve.Client.call idle_conn (W.Path_query { origin; dest }) with
              | Ok (W.Path_reply _) -> ()
              | Ok _ | Error _ -> Alcotest.fail "warm-up query failed");
              (* Reaping sweeps are rate-limited to one per second per
                 worker: poll the counters with a generous ceiling. *)
              let deadline = Unix.gettimeofday () +. 8.0 in
              let rec wait () =
                let idle_reaped = Obs.Metric.Counter.value Serve.Metrics.reaped_idle > idle0 in
                let loris_reaped =
                  Obs.Metric.Counter.value Serve.Metrics.reaped_read_deadline > slow0
                in
                if idle_reaped && loris_reaped then ()
                else if Unix.gettimeofday () > deadline then
                  Alcotest.failf "reaper missed a connection (idle %b, loris %b)" idle_reaped
                    loris_reaped
                else begin
                  Unix.sleepf 0.1;
                  wait ()
                end
              in
              wait ();
              (* A reaped connection is dead: the next call fails. *)
              match Serve.Client.call idle_conn (W.Path_query { origin; dest }) with
              | Error (_ : string) -> ()
              | Ok _ -> Alcotest.fail "reaped connection still answered"))

(* ------------------------ chaos proxy + breaker ----------------------- *)

let test_breaker_via_blackhole () =
  serve_fixture (fun server pairs ->
      let proxy = Serve.Chaosproxy.start ~seed:5 ~upstream_port:(Serve.Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Serve.Chaosproxy.stop proxy)
        (fun () ->
          let opens0 = Obs.Metric.Counter.value Serve.Metrics.breaker_opens in
          let timeouts0 = Obs.Metric.Counter.value Serve.Metrics.client_timeouts in
          Serve.Chaosproxy.set_fault proxy Serve.Chaosproxy.Blackhole;
          let cfg =
            {
              Serve.Load.default with
              Serve.Load.port = Serve.Chaosproxy.port proxy;
              conns = 1;
              requests = 4;
              pairs;
              timeout_s = 0.1;
              retries = 0;
              breaker_failures = 2;
              breaker_cooldown_s = 0.05;
              seed = 13;
            }
          in
          match Serve.Load.run cfg with
          | Error e -> Alcotest.failf "load through the blackhole: %s" e
          | Ok r ->
              Alcotest.(check int) "nothing completed" 0 r.Serve.Load.completed;
              Alcotest.(check int) "every request failed" 4 r.Serve.Load.failed;
              Alcotest.(check bool) "timeouts detected" true (r.Serve.Load.timeouts >= 2);
              Alcotest.(check bool) "breaker opened" true (r.Serve.Load.breaker_opens >= 1);
              Alcotest.(check bool) "breaker opens counted" true
                (Obs.Metric.Counter.value Serve.Metrics.breaker_opens > opens0);
              Alcotest.(check bool) "client timeouts counted" true
                (Obs.Metric.Counter.value Serve.Metrics.client_timeouts > timeouts0);
              (* Fault cleared: the same path serves cleanly again. *)
              Serve.Chaosproxy.set_fault proxy Serve.Chaosproxy.Pass;
              let origin, dest = pairs.(0) in
              match
                Serve.Client.request ~connect_timeout_s:2.0 ~timeout_s:2.0
                  ~retry:Serve.Client.default_retry
                  ~port:(Serve.Chaosproxy.port proxy)
                  (W.Path_query { origin; dest })
              with
              | Ok (W.Path_reply _) -> ()
              | Ok _ | Error _ -> Alcotest.fail "proxy path did not recover after the fault"))

(* ------------------------------ rebuilds ----------------------------- *)

let geant_inputs () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.5 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  (g, power, pairs, demand)

let gbps x = Eutil.Units.to_float (Eutil.Units.gbps x)

let update_ok state (origin, dest, bps) =
  match Serve.State.update_demand state ~origin ~dest ~bps with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "update %d,%d: %s" origin dest e

(* A Stats reply is built from [State.figures]: one domain writes 200
   demands, back to back in bursts of ten with a short pause between
   bursts so that rebuilds land mid-stream, while this one reads the
   figures until version 200 is live. Each write and its generation bump
   share one critical section, so snapshot v evaluates exactly the boot
   matrix plus the first v writes, and every observed triple must match
   that. *)
let test_figures_one_snapshot () =
  let g, power, pairs, demand = geant_inputs () in
  let tables = Response.Framework.precompute_cached g power ~pairs in
  let parr = Array.of_list pairs in
  let rng = Eutil.Prng.create 3 in
  let writes =
    List.init 200 (fun _ ->
        let origin, dest = parr.(Eutil.Prng.int rng (Array.length parr)) in
        (origin, dest, gbps (Eutil.Prng.range rng 0.0 6.0)))
  in
  (* expected.(v) = (levels, power bits) of the boot matrix plus the
     first v writes. *)
  let tm = Traffic.Matrix.copy demand in
  let figures () =
    let e = Response.Framework.evaluate tables power tm in
    (e.Response.Framework.levels_activated, Int64.bits_of_float e.Response.Framework.power_percent)
  in
  let boot = figures () in
  let expected =
    Array.of_list
      (boot
      :: List.map
           (fun (o, d, bps) ->
             Traffic.Matrix.set tm o d bps;
             figures ())
           writes)
  in
  let state = Serve.State.create g power ~pairs ~demand in
  Fun.protect
    ~finally:(fun () -> Serve.State.stop state)
    (fun () ->
      let writer =
        Domain.spawn (fun () ->
            List.iteri
              (fun i w ->
                update_ok state w;
                if i mod 10 = 9 then Unix.sleepf 2e-4)
              writes)
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec watch mixed =
        let ((v, levels, power_percent) as fig) = Serve.State.figures state in
        let want_levels, want_power = expected.(v) in
        let mixed =
          if levels = want_levels && Int64.equal (Int64.bits_of_float power_percent) want_power
          then mixed
          else Some fig
        in
        if v >= 200 || Unix.gettimeofday () > deadline then (v, mixed)
        else begin
          Domain.cpu_relax ();
          watch mixed
        end
      in
      let last, mixed = watch None in
      Domain.join writer;
      Alcotest.(check int) "version 200 went live" 200 last;
      match mixed with
      | None -> ()
      | Some (v, l, p) ->
          Alcotest.failf "version %d reported levels %d, power %h: another snapshot's figures" v l
            p)

(* Every rebuild reuses the tables built at [create]. The precompute memo
   is emptied after [create], so a rebuild that asked the memo (or
   [precompute]) for tables would build them again and move the
   precompute counter. *)
let test_rebuild_no_table_work () =
  let g, power, pairs, demand = geant_inputs () in
  let state = Serve.State.create g power ~pairs ~demand in
  Response.Framework.cache_clear ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Serve.State.stop state)
    (fun () ->
      let before = Fixtures.precomputes () in
      let parr = Array.of_list pairs in
      for i = 0 to 49 do
        let origin, dest = parr.(i mod Array.length parr) in
        update_ok state (origin, dest, gbps (0.1 *. float_of_int (i + 1)))
      done;
      List.iter
        (fun up ->
          match Serve.State.set_link state ~link:0 ~up with
          | Ok (_ : int) -> ()
          | Error e -> Alcotest.failf "set_link: %s" e)
        [ false; true ];
      Alcotest.(check int) "every write rebuilt" 53 (Serve.State.reload state);
      Alcotest.(check (float 0.0)) "no table set built" before (Fixtures.precomputes ()))

(* The from-scratch rebuild every snapshot swap used to run, frozen as
   the oracle: precompute_cached, then evaluate, then route compilation
   (each pair's paths as (level, links, nodes) in activation order). *)
let scratch_rebuild g power ~pairs tm =
  let tables = Response.Framework.precompute_cached g power ~pairs in
  let eval = Response.Framework.evaluate tables power tm in
  let tg = Response.Tables.graph tables in
  let routes = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (e : Response.Tables.entry) ->
      Hashtbl.replace routes (e.origin, e.dest)
        (Array.mapi
           (fun level p -> (level, Topo.Path.links tg p, Array.to_list (Topo.Path.nodes tg p)))
           (Response.Tables.paths e)))
    (Response.Tables.entries tables);
  (eval, routes)

(* The oracle's answer: the pair's first route whose links are all up. *)
let scratch_resolve routes down pair =
  match Hashtbl.find_opt routes pair with
  | None -> (W.Unknown_pair, 0, [])
  | Some rs -> (
      let up (_, links, _) = not (Array.exists (fun l -> down.(l)) links) in
      match Array.find_opt up rs with
      | Some (level, _, nodes) -> (W.Path_ok, level, nodes)
      | None -> (W.No_usable_path, 0, []))

type op = Demand of int * int * float | Link of int * bool | Reload

let pp_op = function
  | Demand (o, d, bps) -> Printf.sprintf "demand %d,%d %h" o d bps
  | Link (l, up) -> Printf.sprintf "link %d %s" l (if up then "up" else "down")
  | Reload -> "reload"

let rebuild_inputs = lazy (geant_inputs ())

let op_gen =
  let g, _, pairs, demand = Lazy.force rebuild_inputs in
  let nodes = Topo.Graph.node_count g and links = Topo.Graph.link_count g in
  let open QCheck.Gen in
  let pair = oneofl pairs in
  let valid =
    pair >>= fun (o, d) ->
    oneof
      [
        return 0.0;
        map (fun k -> Traffic.Matrix.get demand o d *. k) (float_range 0.5 2.0);
        (* Large enough to spill past the always-on paths. *)
        map gbps (float_range 2.0 20.0);
      ]
    >|= fun bps -> Demand (o, d, bps)
  in
  let invalid =
    oneof
      [
        map (fun o -> Demand (o, o, gbps 1.0)) (int_bound (nodes - 1));
        map2 (fun k (_, d) -> Demand (nodes + k, d, gbps 1.0)) (int_bound 3) pair;
        map2 (fun k (o, _) -> Demand (o, -1 - k, gbps 1.0)) (int_bound 3) pair;
        map (fun (o, d) -> Demand (o, d, -1.0)) pair;
        map (fun (o, d) -> Demand (o, d, Float.nan)) pair;
        map (fun up -> Link (links + 1, up)) bool;
      ]
  in
  frequency
    [
      (6, valid);
      (2, invalid);
      (2, map2 (fun l up -> Link (l, up)) (int_bound (links - 1)) bool);
      (1, return Reload);
    ]

(* Random write sequences on one state, closed by a reload, must leave
   it where the from-scratch rebuild of the same staged matrix and link
   vector would: the version counts the accepted operations, and the
   figures (power as IEEE bits) and every ordered pair's answer agree. *)
let prop_rebuild_oracle =
  QCheck.Test.make ~name:"rebuild equals the from-scratch oracle" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_bound 30) op_gen))
    (fun ops ->
      let g, power, pairs, demand = Lazy.force rebuild_inputs in
      let tm = Traffic.Matrix.copy demand in
      let down = Array.make (Topo.Graph.link_count g) false in
      let state = Serve.State.create g power ~pairs ~demand in
      Fun.protect
        ~finally:(fun () -> Serve.State.stop state)
        (fun () ->
          (* Applies [op] to the state and, if it is accepted, to the model. *)
          let apply op =
            match op with
            | Demand (origin, dest, bps) -> (
                match Serve.State.update_demand state ~origin ~dest ~bps with
                | Ok (_ : int) ->
                    Traffic.Matrix.set tm origin dest bps;
                    true
                | Error (_ : string) -> false)
            | Link (link, up) -> (
                match Serve.State.set_link state ~link ~up with
                | Ok (_ : int) ->
                    down.(link) <- not up;
                    true
                | Error (_ : string) -> false)
            | Reload ->
                ignore (Serve.State.reload state);
                true
          in
          let accepted = List.fold_left (fun n op -> if apply op then n + 1 else n) 0 ops in
          let version = Serve.State.reload state in
          let eval, routes = scratch_rebuild g power ~pairs tm in
          let v, levels, power_percent = Serve.State.figures state in
          let nodes = List.init (Topo.Graph.node_count g) Fun.id in
          let answer_agrees origin dest =
            origin = dest
            ||
            let status, level, path = Serve.State.resolve state ~origin ~dest in
            let status', level', path' = scratch_resolve routes down (origin, dest) in
            status = status' && level = level' && List.equal Int.equal path path'
          in
          version = accepted + 1
          && v = version
          && levels = eval.Response.Framework.levels_activated
          && Int64.equal (Int64.bits_of_float power_percent)
               (Int64.bits_of_float eval.Response.Framework.power_percent)
          && List.for_all (fun o -> List.for_all (answer_agrees o) nodes) nodes))

(* ------------------------------- suite ------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_stream;
          QCheck_alcotest.to_alcotest prop_decode_never_raises;
          QCheck_alcotest.to_alcotest prop_mutated_golden_total;
          Alcotest.test_case "truncated prefixes" `Quick test_truncated_prefixes;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "oversized" `Quick test_oversized;
          Alcotest.test_case "bad tag" `Quick test_bad_tag;
          Alcotest.test_case "bad payload" `Quick test_bad_payload;
          Alcotest.test_case "empty payload" `Quick test_empty_payload;
          Alcotest.test_case "encode validation" `Quick test_encode_validation;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "error code names" `Quick test_error_code_names;
        ] );
      ( "guard",
        [
          Alcotest.test_case "config validation" `Quick test_guard_config_validation;
          Alcotest.test_case "hysteresis" `Quick test_guard_hysteresis;
          Alcotest.test_case "deadlines and connection caps" `Quick test_guard_deadlines_and_conns;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip and compaction" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "corrupt record" `Quick test_journal_corrupt_record;
          Alcotest.test_case "crash-restart identity" `Quick test_journal_restart_identity;
        ] );
      ( "export",
        [ Alcotest.test_case "prometheus page identity" `Quick test_prometheus_page_identity ] );
      ( "rebuild",
        [
          Alcotest.test_case "stats figures from one snapshot" `Quick test_figures_one_snapshot;
          Alcotest.test_case "rebuild does no table work" `Quick test_rebuild_no_table_work;
          QCheck_alcotest.to_alcotest prop_rebuild_oracle;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "session" `Quick test_loopback_session;
          Alcotest.test_case "shutdown path" `Quick test_shutdown_path;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "shedding and recovery" `Quick test_server_shedding;
          Alcotest.test_case "request deadline" `Quick test_server_deadline;
          Alcotest.test_case "connection cap" `Quick test_server_conn_cap;
          Alcotest.test_case "reaper" `Quick test_server_reaper;
          Alcotest.test_case "breaker via blackhole" `Quick test_breaker_via_blackhole;
        ] );
    ]
