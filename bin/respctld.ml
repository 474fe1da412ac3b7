(* respctld — the REsPoNse control-plane daemon.

   respctld geant                          # serve on 4710 (metrics on 4711)
   respctld geant --port 0 --http-port 0  # ephemeral ports, printed at startup
   respctld geant --smoke 200             # in-process smoke session, then exit
*)

open Cmdliner

let stop_flag = Atomic.make false

let install_signal_handlers () =
  let handler _ = Atomic.set stop_flag true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)

(* Daemon mode: sit on the flag until SIGINT/SIGTERM. *)
let wait_for_stop () =
  let rec loop () =
    if Atomic.get stop_flag then ()
    else begin
      (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  0

let smoke_writes = 20

(* The smoke session's write half: [smoke_writes] seeded demand updates,
   each acknowledged, live (Stats reports a version at least the ack's)
   within 2 s, and then answered with a usable path for its pair. Returns
   the problems found. *)
let run_smoke_writes server pairs =
  let rng = Eutil.Prng.create 7 in
  let rec visible cl deadline target =
    match Serve.Client.call ~timeout_s:2.0 cl Serve.Wire.Stats with
    | Ok (Serve.Wire.Stats_reply st) when st.Serve.Wire.s_version >= target -> true
    | Ok (Serve.Wire.Stats_reply _) when Obs.Clock.now_s () < deadline ->
        Unix.sleepf 1e-3;
        visible cl deadline target
    | Ok _ | Error _ -> false
  in
  let write cl =
    let origin, dest = pairs.(Eutil.Prng.int rng (Array.length pairs)) in
    let bps = Eutil.Units.to_float (Eutil.Units.gbps (Eutil.Prng.range rng 0.01 0.5)) in
    let what = Printf.sprintf "write %d,%d" origin dest in
    match Serve.Client.call ~timeout_s:2.0 cl (Serve.Wire.Demand_update { origin; dest; bps }) with
    | Ok (Serve.Wire.Ack { version }) -> (
        if not (visible cl (Obs.Clock.now_s () +. 2.0) version) then
          [ Printf.sprintf "%s (generation %d) not visible within 2 s" what version ]
        else
          match Serve.Client.call ~timeout_s:2.0 cl (Serve.Wire.Path_query { origin; dest }) with
          | Ok (Serve.Wire.Path_reply { status = Serve.Wire.Path_ok; _ }) -> []
          | Ok _ | Error _ -> [ what ^ ": no usable path after the write" ])
    | Ok _ | Error _ -> [ what ^ " not acknowledged" ]
  in
  match Serve.Client.connect ~timeout_s:2.0 ~port:(Serve.Server.port server) () with
  | Error e -> [ "writer connect failed: " ^ e ]
  | Ok cl ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () -> List.concat (List.init smoke_writes (fun _ -> write cl)))

(* Smoke mode (the @serve alias): a fixed-seed end-to-end session against
   our own loopback listeners — closed-loop queries with a mid-run
   reload, seeded demand writes read back once live, a /metrics +
   /healthz scrape, and a JSON-export validation — then a graceful
   shutdown. Exit 0 only if nothing failed or dropped. *)
let run_smoke server pairs n =
  let cfg =
    {
      Serve.Load.default with
      Serve.Load.port = Serve.Server.port server;
      conns = 2;
      requests = n;
      duration_s = 30.0;
      pairs;
      reload_at = Some 0.0;
    }
  in
  match Serve.Load.run cfg with
  | Error e ->
      Format.eprintf "smoke: %s@." e;
      1
  | Ok r ->
      Format.printf "smoke: %a@." Serve.Load.pp r;
      let write_problems = run_smoke_writes server pairs in
      let http_port = Serve.Server.http_port server in
      let scrape = Serve.Client.http_get ~port:http_port ~path:"/metrics" () in
      let health = Serve.Client.http_get ~port:http_port ~path:"/healthz" () in
      let json_ok = Obs.Export.validate_json (Obs.Export.to_json (Obs.Registry.snapshot Obs.Registry.default)) in
      let load_json_ok = Obs.Export.validate_json (Serve.Load.to_json r) in
      let problems =
        List.concat
          [
            (if r.Serve.Load.completed <> n then
               [ Printf.sprintf "completed %d of %d queries" r.Serve.Load.completed n ]
             else []);
            (if r.Serve.Load.failed > 0 then [ Printf.sprintf "%d failed" r.Serve.Load.failed ]
             else []);
            (if r.Serve.Load.wrong > 0 then
               [ Printf.sprintf "%d wrong replies" r.Serve.Load.wrong ]
             else []);
            (if r.Serve.Load.reloads <> 1 then [ "mid-run reload was not acknowledged" ] else []);
            (match scrape with
            | Ok body when String.length body > 0 -> []
            | Ok _ -> [ "/metrics returned an empty page" ]
            | Error e -> [ "/metrics scrape failed: " ^ e ]);
            (match health with Ok _ -> [] | Error e -> [ "/healthz failed: " ^ e ]);
            (match json_ok with Ok () -> [] | Error e -> [ "metrics JSON invalid: " ^ e ]);
            (match load_json_ok with Ok () -> [] | Error e -> [ "load JSON invalid: " ^ e ]);
            write_problems;
          ]
      in
      List.iter (fun p -> Format.eprintf "smoke: %s@." p) problems;
      if problems = [] then begin
        Format.printf "smoke: ok (%d queries, %d writes, 1 reload, scrape + JSON export valid)@."
          n smoke_writes;
        0
      end
      else 1

let serve name port http_port workers seed fraction beta load_gbps jobs journal_path
    max_inflight max_conns request_budget read_deadline idle_timeout smoke =
  Cli_topo.with_topology name (fun t g ->
      Obs.set_enabled true;
      install_signal_handlers ();
      let power = Cli_topo.power_of t g in
      let pairs = Cli_topo.pairs_of g ~seed ~fraction in
      let config = { Response.Framework.default with latency_beta = beta } in
      let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps load_gbps) () in
      let journal =
        match journal_path with
        | None -> Ok None
        | Some p -> (
            match Serve.Journal.open_ p with
            | Ok j ->
                Format.printf "respctld: journal %s: replayed %d record(s)%s@." p
                  (List.length (Serve.Journal.entries j))
                  (if Serve.Journal.torn j then " (dropped a torn tail)" else "");
                Ok (Some j)
            | Error e -> Error e)
      in
      match journal with
      | Error e ->
          Format.eprintf "respctld: journal: %s@." e;
          1
      | Ok journal -> (
      match Serve.State.create ~config ~jobs ?journal g power ~pairs ~demand with
      | exception Invalid_argument msg ->
          (match journal with Some j -> Serve.Journal.close j | None -> ());
          Format.eprintf "respctld: initial tables: %s@." msg;
          1
      | state ->
          let guard =
            {
              Serve.Guard.default with
              Serve.Guard.max_inflight;
              max_conns;
              request_budget_s = request_budget;
              read_deadline_s = read_deadline;
              idle_timeout_s = idle_timeout;
            }
          in
          let sconfig = { Serve.Server.default_config with port; http_port; workers; guard } in
          (match Serve.Server.start ~config:sconfig state with
          | exception Unix.Unix_error (err, _, _) ->
              Serve.State.stop state;
              Format.eprintf "respctld: cannot listen: %s@." (Unix.error_message err);
              1
          | exception Invalid_argument msg ->
              Serve.State.stop state;
              Format.eprintf "respctld: guard config: %s@." msg;
              1
          | server ->
              Format.printf
                "respctld: serving %s on 127.0.0.1:%d (metrics on :%d), %d worker(s), %d pairs@."
                t.Cli_topo.tname (Serve.Server.port server)
                (Serve.Server.http_port server)
                workers (List.length pairs);
              let code =
                match smoke with
                | Some n -> run_smoke server (Array.of_list pairs) n
                | None -> wait_for_stop ()
              in
              Serve.Server.stop server;
              Serve.State.stop state;
              (* Final metrics dump on the way out: the scrape endpoint is
                 gone, so the numbers land in the log instead. *)
              (match smoke with
              | None ->
                  Format.printf "respctld: served %d request(s); final metrics:@."
                    (Serve.Server.served server);
                  print_string (Obs.Export.prometheus_page ())
              | Some _ -> ());
              code)))

let port_arg =
  Arg.(
    value & opt int 4710 & info [ "port" ] ~docv:"PORT" ~doc:"Binary protocol port (0 = ephemeral).")

let http_port_arg =
  Arg.(
    value
    & opt int 4711
    & info [ "http-port" ] ~docv:"PORT" ~doc:"Metrics/health scrape port (0 = ephemeral).")

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Connection worker domains.")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for sampled pairs.")

let beta_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "beta" ] ~docv:"BETA" ~doc:"REsPoNse-lat latency bound (e.g. 0.25).")

let load_arg =
  Arg.(
    value
    & opt float 5.0
    & info [ "load-gbps" ] ~docv:"GBPS" ~doc:"Initial gravity-model offered load in Gbit/s.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan the boot-time table build out over $(docv) domains (demand writes and link \
           events only re-evaluate the built tables).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Crash-safe demand journal: replay $(docv) at startup (the pre-crash staged state \
           boots into the first snapshot), fsync every accepted update before acknowledging \
           it, and checkpoint on each snapshot swap.")

let max_inflight_arg =
  Arg.(
    value
    & opt int Serve.Guard.default.Serve.Guard.max_inflight
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Shed requests ($(b,overloaded)) past this many executing at once (0 = unlimited).")

let max_conns_arg =
  Arg.(
    value
    & opt int Serve.Guard.default.Serve.Guard.max_conns
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Refuse binary connections past this many open (0 = unlimited).")

let request_budget_arg =
  Arg.(
    value
    & opt float Serve.Guard.default.Serve.Guard.request_budget_s
    & info [ "request-budget" ] ~docv:"S"
        ~doc:
          "Per-request deadline from first frame byte to execution; expired requests get a \
           $(b,deadline) error (0 = unlimited).")

let read_deadline_arg =
  Arg.(
    value
    & opt float Serve.Guard.default.Serve.Guard.read_deadline_s
    & info [ "read-deadline" ] ~docv:"S"
        ~doc:"Reap connections holding a partial frame this long (slow-loris guard; 0 = off).")

let idle_timeout_arg =
  Arg.(
    value
    & opt float Serve.Guard.default.Serve.Guard.idle_timeout_s
    & info [ "idle-timeout" ] ~docv:"S"
        ~doc:"Reap connections with no traffic for this long (0 = off).")

let smoke_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "smoke" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Self-test mode: run $(docv) loopback queries plus a mid-run reload, %d seeded \
              demand writes (each read back once live) and a metrics scrape in-process, then \
              shut down and exit (0 = everything answered)."
             smoke_writes))

let topology_arg =
  let doc = "Topology name (geant, abovenet, genuity, pop-access, fattree4, fattree8)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPOLOGY" ~doc)

let () =
  let doc = "REsPoNse control-plane daemon: precomputed energy-critical paths behind a wire protocol" in
  let info = Cmd.info "respctld" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const serve $ topology_arg $ port_arg $ http_port_arg $ workers_arg $ seed_arg
            $ Cli_topo.fraction_arg $ beta_arg $ load_arg $ jobs_arg $ journal_arg $ max_inflight_arg
            $ max_conns_arg $ request_budget_arg $ read_deadline_arg $ idle_timeout_arg
            $ smoke_arg)))
