(* "serve" section: loopback sweep of the respctld serving path.

   An in-process server on ephemeral ports (GEANT tables, 2 worker
   domains) is driven closed-loop by Serve.Load at increasing connection
   counts; throughput and latency percentiles land in serve_timings for
   the --json report. The acceptance SLO for the daemon is at least
   5000 req/s with p99 below 5 ms on this loopback path. *)

let serve_timings : (int * Serve.Load.report) list ref = ref []

let conn_sweep = [ 1; 2; 4 ]

let requests_for conns = (if Report.fast then 300 else 5000) * conns

let sweep_one port pairs conns =
  let cfg =
    {
      Serve.Load.default with
      Serve.Load.port;
      conns;
      requests = requests_for conns;
      duration_s = 120.0;
      pairs;
    }
  in
  match Serve.Load.run cfg with
  | Error e ->
      Report.row "  conns %d: load error: %s@." conns e;
      None
  | Ok r ->
      Report.row "  conns %d: %8.0f req/s   p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  (%d/%d ok)@."
        conns r.Serve.Load.qps r.Serve.Load.p50_ms r.Serve.Load.p90_ms r.Serve.Load.p99_ms
        r.Serve.Load.completed r.Serve.Load.sent;
      Some (conns, r)

(* Guard.admit sits on the per-request hot path (declared in
   check/analyze.json) and the journal append sits on every acknowledged
   update: pin their unit costs so a regression is a visible number, not
   a vibe. The journal runs with fsync off — the bench measures the
   encode/CRC/write path, not the disk. *)
let resilience_micro () =
  Report.subsection "resilience: admission hot path and journal append";
  let iters = if Report.fast then 200_000 else 2_000_000 in
  let guard = Serve.Guard.create Serve.Guard.default in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    match Serve.Guard.admit guard ~now:(float_of_int i *. 1e-6) with
    | Serve.Guard.Admit -> ()
    | Serve.Guard.Shed -> ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Report.row "  Guard.admit: %.0f ns/op (%d ops in %.3f s)@."
    (dt /. float_of_int iters *. 1e9)
    iters dt;
  let append_bps = Eutil.Units.to_float (Eutil.Units.gbps 1.0) in
  let jpath = Filename.temp_file "bench-serve" ".journal" in
  (match Serve.Journal.open_ ~fsync:false jpath with
  | Error e -> Report.row "  journal open failed: %s@." e
  | Ok j ->
      let appends = if Report.fast then 5_000 else 50_000 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to appends - 1 do
        ignore
          (Serve.Journal.append j
             (Serve.Wire.Demand_update
                { origin = i land 0xff; dest = 256 + (i land 0xff); bps = append_bps }))
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Serve.Journal.close j;
      Report.row "  Journal.append (no fsync): %.2f us/record (%d records in %.3f s)@."
        (dt /. float_of_int appends *. 1e6)
        appends dt);
  (try Sys.remove jpath with Sys_error _ -> ());
  Report.note "fsync'd appends are disk-bound; the daemon pays one per acknowledged update"

let serve () =
  Report.section "serve: respctld loopback wire-protocol sweep (GEANT)";
  serve_timings := [];
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.7 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let config = Response.Framework.default in
  match Serve.State.create ~config ~jobs:1 g power ~pairs ~demand with
  | exception Invalid_argument msg -> Report.row "  setup failed: %s@." msg
  | state -> (
      let sconfig = { Serve.Server.default_config with port = 0; http_port = 0; workers = 2 } in
      match Serve.Server.start ~config:sconfig state with
      | exception Unix.Unix_error (err, _, _) ->
          Serve.State.stop state;
          Report.row "  cannot listen: %s@." (Unix.error_message err)
      | server ->
          let port = Serve.Server.port server in
          let parr = Array.of_list pairs in
          List.iter
            (fun conns ->
              match sweep_one port parr conns with
              | Some entry -> serve_timings := entry :: !serve_timings
              | None -> ())
            conn_sweep;
          Serve.Server.stop server;
          Serve.State.stop state;
          serve_timings := List.rev !serve_timings;
          Report.note "closed-loop over loopback TCP; SLO: >= 5000 req/s with p99 < 5 ms");
  resilience_micro ()
