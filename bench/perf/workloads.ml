(* The five workloads. Each builds its inputs from the seed, spends the
   round time on one layer's hot path through that layer's public
   functions, and checks its outputs outside the timed region. README.md
   records why each workload exists and which layer it isolates. *)

open Measure
module U = Eutil.Units

type outcome = { checks : checks; metrics : (string * float) list }

type workload = { name : string; summary : string; run : ctx -> outcome }

(* Set-up, repeated; then the per-set-up counts and library spans that a
   traced run records, and a clean registry for the rounds. *)
let set_up ctx ?release setup =
  let reps = if ctx.smoke then 1 else 15 in
  let env, setup_s = setups ?release ~reps setup in
  let span_ms name = 1e3 *. obs_span_mean_s name in
  let metrics =
    [
      ("setup_s", setup_s);
      ("routing.dijkstra_runs_setup", counter "routing_dijkstra_runs_total" /. float_of_int reps);
      ("core.precompute_ms", span_ms "core.precompute");
      ("core.precompute.always_on_ms", span_ms "core.precompute.always_on");
      ("core.precompute.on_demand_ms", span_ms "core.precompute.on_demand");
      ("core.precompute.failover_ms", span_ms "core.precompute.failover");
      ("core.precompute.validate_ms", span_ms "core.precompute.validate");
    ]
  in
  Obs.Registry.reset Obs.Registry.default;
  (env, metrics)

(* Per-layer numbers every workload reports; a layer the workload bypasses
   reads 0. *)
let common rs =
  let dijkstra = counter "routing_dijkstra_runs_total" in
  let pops = counter "routing_heap_pops_total" in
  [
    ("routing.dijkstra_runs_per_unit", ratio dijkstra rs.live_units);
    ("routing.heap_pops_per_unit", ratio pops rs.live_units);
    ("routing.heap_pops_per_dijkstra", ratio pops dijkstra);
    ("gc.minor_mwords_per_unit", ratio rs.traced_minor_words (total_units rs.traced) /. 1e6);
    ("trace.overhead_ratio", overhead_ratio rs);
  ]

let geant () =
  let g = Topo.Geant.make () in
  (g, Power.Model.cisco12000 g)

(* The GEANT workloads keep the pair samples of the paper-figure benches
   (seed 24 for the replay, 7 for chaos and serving): which routers carry
   traffic sets the work per interval by up to 30%, which would swamp the
   run-to-run spread. The workload seed drives everything else. *)
let geant_pairs g ~sample = Traffic.Gravity.random_node_pairs g ~seed:sample ~fraction:0.7

(* Intervals k, k + stride, k + 2 stride, ... of the trace: one round's
   share. Every interval is solved from scratch, so each round samples the
   whole trace (weekdays, weekends, peaks and troughs alike) and [stride]
   rounds cover it once. *)
let strided trace ~stride k =
  let k = k mod stride in
  let n = Traffic.Trace.length trace in
  let tms = Array.init ((n - k + stride - 1) / stride) (fun i -> Traffic.Trace.at trace (k + (i * stride))) in
  Traffic.Trace.make ~start:(Traffic.Trace.time_of trace k)
    ~interval:(trace.Traffic.Trace.interval *. float_of_int stride)
    tms

let state_line state power_percent = Printf.sprintf "%s %h" (Topo.State.key state) power_percent

(* ---------------------------- geant-replay ------------------------- *)

let geant_replay ctx =
  let c = checks () in
  let days, stride = if ctx.smoke then (1, 12) else (15, 15) in
  let (g, power, trace), setup =
    set_up ctx (fun () ->
        let g, power = geant () in
        let pairs = geant_pairs g ~sample:24 in
        (g, power, Traffic.Synth.geant_like g ~seed:ctx.seed ~days ~pairs ()))
  in
  let round k =
    let slice = strided trace ~stride k in
    let r, seconds =
      timed (fun () -> span "core.replay" (fun () -> Response.Replay.run g power slice))
    in
    let ivs = r.Response.Replay.intervals in
    c.attempted <- c.attempted + Array.length ivs;
    let lines =
      Array.to_list
        (Array.map
           (fun (iv : Response.Replay.interval) ->
             state_line iv.state iv.power_percent ^ if iv.changed then " changed" else "")
           ivs)
    in
    if first_pass c ~period:stride k (digest lines) then
      Array.iteri
        (fun i (iv : Response.Replay.interval) ->
          match Optim.Minimal.evaluate g power (Traffic.Trace.at slice i) iv.state with
          | Some _ -> ()
          | None -> fail c "round %d interval %d: the chosen state does not carry its matrix" k i)
        ivs;
    { units = float_of_int (Array.length ivs); seconds }
  in
  let rs = run_rounds ctx ~obs_on:false round in
  committed c ctx ~workload:"geant-replay" (first_round_digest c);
  let step q = 1e3 *. histogram_quantile "core_replay_step_seconds" q in
  {
    checks = c;
    metrics =
      setup @ common rs
      @ [
          ("throughput_per_s", rate rs.untraced);
          ("latency_p50_ms", 1e3 *. cost_per_unit rs.untraced);
          ("core.replay_step_ms_p50", step 0.5);
          ("core.replay_step_ms_p99", step 0.99);
        ];
  }

(* --------------------------- fattree-elastic ----------------------- *)

let fattree_elastic ctx =
  let c = checks () in
  let flows, days = if ctx.smoke then (40, 1) else (200, 4) in
  let stride = 12 in
  let (ft, power, trace), setup =
    set_up ctx (fun () ->
        let ft = Topo.Fattree.make 12 in
        let g = ft.Topo.Fattree.graph in
        let rng = Eutil.Prng.create ctx.seed in
        let hosts = Topo.Fattree.n_hosts ft in
        let pairs =
          List.init flows (fun _ ->
              let o = Eutil.Prng.int rng hosts in
              let d = (o + 1 + Eutil.Prng.int rng (hosts - 1)) mod hosts in
              (Topo.Fattree.host ft o, Topo.Fattree.host ft d))
          |> List.sort_uniq Eutil.Order.int_pair
        in
        let trace =
          Traffic.Synth.google_dc_like ~n:(Topo.Graph.node_count g) ~pairs ~seed:ctx.seed ~days
            ~interval:(U.seconds 3600.0) ~peak:(U.mbps 100.0) ()
        in
        (ft, Power.Model.commodity_dc g, trace))
  in
  let g = ft.Topo.Fattree.graph in
  let latencies = ref [] in
  let round k =
    let slice = strided trace ~stride k in
    let ranking = Response.Critical_paths.create g in
    let spent = ref 0.0 in
    let results = ref [] in
    Traffic.Trace.iter slice ~f:(fun _ _ tm ->
        let res, dt =
          timed (fun () ->
              let res =
                span "optim.elastic" (fun () -> Optim.Elastic.minimal_subset ft power tm)
              in
              Option.iter
                (fun (r : Optim.Minimal.result) ->
                  span "core.observe" (fun () ->
                      Response.Critical_paths.observe ranking r.routing tm))
                res;
              res)
        in
        spent := !spent +. dt;
        if not !tracing then latencies := dt :: !latencies;
        results := (tm, res) :: !results);
    let results = List.rev !results in
    c.attempted <- c.attempted + List.length results;
    let lines =
      List.map
        (fun (_, res) ->
          match res with
          | Some (r : Optim.Minimal.result) -> state_line r.state r.power_percent
          | None -> "infeasible")
        results
      @ List.map
          (fun (x, cov) -> Printf.sprintf "top %d %h" x cov)
          (Response.Critical_paths.coverage_curve ranking ~max:6)
    in
    if first_pass c ~period:stride k (digest lines) then
      List.iteri
        (fun i (tm, res) ->
          match res with
          | None -> fail c "round %d interval %d: no feasible subset" k i
          | Some (r : Optim.Minimal.result) -> (
              match Optim.Minimal.evaluate g power tm r.state with
              | Some _ -> ()
              | None -> fail c "round %d interval %d: the subset does not carry its matrix" k i))
        results;
    { units = float_of_int (List.length results); seconds = !spent }
  in
  let rs = run_rounds ctx ~obs_on:false round in
  committed c ctx ~workload:"fattree-elastic" (first_round_digest c);
  let calls = span_durations "optim.elastic" in
  let observe = List.fold_left ( +. ) 0.0 (span_durations "core.observe") in
  {
    checks = c;
    metrics =
      setup @ common rs
      @ [
          ("throughput_per_s", rate rs.untraced);
          ("latency_p50_ms", 1e3 *. median !latencies);
          ("optim.elastic_call_ms_p50", 1e3 *. quantile calls 0.5);
          ("optim.elastic_call_ms_p90", 1e3 *. quantile calls 0.9);
          ("core.observe_ms_per_unit", 1e3 *. ratio observe (total_units rs.traced));
        ];
  }

(* ----------------------------- geant-chaos ------------------------- *)

let geant_chaos ctx =
  let c = checks () in
  let duration = if ctx.smoke then 2.0 else 10.0 in
  let (tables, power, base), setup =
    set_up ctx (fun () ->
        let g, power = geant () in
        let pairs = geant_pairs g ~sample:7 in
        let tables = Response.Framework.precompute g power ~pairs in
        (tables, power, Traffic.Gravity.make g ~pairs ~total:(U.gbps 5.0) ()))
  in
  let first = ref "" in
  (* Round k is trial k: every round a fresh fault schedule, since trials
     differ in cost by +-10% and a run should average over many. *)
  let round k =
    let spec =
      {
        Fault.Scenario.default with
        Fault.Scenario.seed = ctx.seed + k;
        duration;
        link_faults = Some { Fault.Scenario.mtbf = 3.0; mttr = 0.5 };
      }
    in
    let r, seconds =
      timed (fun () ->
          span "fault.trial" (fun () ->
              match Fault.Harness.run ~tables ~power ~base ~spec ~trials:1 () with
              | r -> Ok r
              | exception Invalid_argument msg -> Error msg))
    in
    c.attempted <- c.attempted + 1;
    match r with
    | Error msg ->
        fail c "trial %d: %s" k msg;
        { units = 0.0; seconds }
    | Ok r ->
        if k = 0 then first := digest [ Fault.Harness.to_json r ];
        let residual = r.Fault.Harness.conservation_residual_bits in
        if residual > 1e-6 *. Float.max 1.0 r.Fault.Harness.offered_bits then
          fail c "trial %d: traffic not conserved (residual %g bits)" k residual;
        { units = duration; seconds }
  in
  let rs = run_rounds ctx ~obs_on:false round in
  committed c ctx ~workload:"geant-chaos" !first;
  let sim_s = rs.live_units in
  let trials = float_of_int (List.length rs.traced) in
  let probes = labelled_counter "netsim_events_total" [ ("type", "probe") ] in
  let per_sim_s name = ratio (counter name) sim_s in
  {
    checks = c;
    metrics =
      setup @ common rs
      @ [
          ("throughput_per_s", rate rs.untraced);
          ("latency_p50_ms", 1e3 *. cost_per_unit rs.untraced);
          ("fault.trial_s_p50", median (span_durations "fault.trial"));
          ("netsim.probe_us", 1e6 *. ratio (total_seconds rs.traced) probes);
          ("netsim.probe_events_per_sim_s", ratio probes sim_s);
          ("netsim.events_per_sim_s", per_sim_s "netsim_events_total");
          ("te.shifts_per_sim_s", per_sim_s "te_shifts_total");
          ("te.wake_requests_per_sim_s", per_sim_s "te_wake_requests_total");
          ("te.panics_per_sim_s", per_sim_s "te_panics_total");
          ("netsim.wake_transitions_per_sim_s", per_sim_s "netsim_wake_transitions_total");
          ("netsim.sleep_transitions_per_sim_s", per_sim_s "netsim_sleep_transitions_total");
          ("netsim.fallback_routes_per_trial", ratio (counter "netsim_fallback_routes_total") trials);
          ("netsim.rejected_wakes_per_trial", ratio (counter "netsim_rejected_wakes_total") trials);
        ];
  }

(* ------------------------------- serve ----------------------------- *)

type server = {
  g : Topo.Graph.t;
  power : Power.Model.t;
  pairs : (int * int) list;
  demand : Traffic.Matrix.t;
  state : Serve.State.t;
  server : Serve.Server.t;
}

(* An in-process respctld on ephemeral loopback ports: GÉANT tables, one
   worker domain, Obs on as respctld runs it. The precompute cache is
   cleared first so every set-up pays for a real precompute, as a daemon
   start does. *)
let start_server () =
  Obs.set_enabled true;
  Response.Framework.cache_clear ();
  let g, power = geant () in
  let pairs = geant_pairs g ~sample:7 in
  let demand = Traffic.Gravity.make g ~pairs ~total:(U.gbps 5.0) () in
  let state = Serve.State.create ~jobs:1 g power ~pairs ~demand in
  let config = { Serve.Server.default_config with port = 0; http_port = 0; workers = 1 } in
  match Serve.Server.start ~config state with
  | server -> { g; power; pairs; demand; state; server }
  | exception e ->
      Serve.State.stop state;
      raise e

let stop_server s =
  Serve.Server.stop s.server;
  Serve.State.stop s.state

let with_client c s f =
  match Serve.Client.connect ~timeout_s:2.0 ~port:(Serve.Server.port s.server) () with
  | Error e ->
      fail c "cannot connect: %s" e;
      None
  | Ok cl -> Some (Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> f cl))

let path_matches s ~origin ~dest = function
  | Ok (Serve.Wire.Path_reply { status; level; nodes }) ->
      let st, lv, ns = Serve.State.resolve s.state ~origin ~dest in
      status = st && level = lv && List.equal Int.equal nodes ns
  | Ok _ | Error _ -> false

(* ------------------------------ serve-read ------------------------- *)

(* The traced run's in-process replay of the request stream through the
   codec, the dispatcher and the snapshot: per-call cost in ns, as the
   median of five passes over the stream. *)
let replay_stream c s order =
  let n = 20_000 in
  let len = Array.length order in
  let frames =
    Array.init n (fun i ->
        let origin, dest = order.(i mod len) in
        Serve.Wire.encode_request (Serve.Wire.Path_query { origin; dest }))
  in
  let reqs = Array.make n Serve.Wire.Health in
  let resps = Array.make n (Serve.Wire.Health_reply { healthy = true; version = 0 }) in
  let per_call name f =
    let (), dt =
      timed (fun () ->
          span name (fun () ->
              for i = 0 to n - 1 do
                f i
              done))
    in
    1e9 *. dt /. float_of_int n
  in
  let pass () =
    [
      ( "serve.decode_ns",
        per_call "serve.decode" (fun i ->
            match Serve.Wire.decode_request frames.(i) with
            | Ok (r, _) -> reqs.(i) <- r
            | Error e -> fail c "frame %d: %s" i (Serve.Wire.error_to_string e)) );
      ( "serve.handle_request_ns",
        per_call "serve.handle_request" (fun i ->
            resps.(i) <- Serve.Server.handle_request s.server reqs.(i)) );
      ( "serve.resolve_ns",
        per_call "serve.resolve" (fun i ->
            let origin, dest = order.(i mod len) in
            ignore (Serve.State.resolve s.state ~origin ~dest)) );
      ( "serve.encode_ns",
        per_call "serve.encode" (fun i -> ignore (Serve.Wire.encode_response resps.(i))) );
    ]
  in
  tracing := true;
  let passes = List.init 5 (fun _ -> pass ()) in
  tracing := false;
  List.map
    (fun (name, _) -> (name, median (List.map (fun p -> List.assoc name p) passes)))
    (List.hd passes)

let serve_read ctx =
  let c = checks () in
  let s, setup = set_up ctx ~release:stop_server start_server in
  Fun.protect ~finally:(fun () -> stop_server s) @@ fun () ->
  let order = Array.of_list s.pairs in
  Eutil.Prng.shuffle (Eutil.Prng.create ctx.seed) order;
  let reports = ref [] in
  let round k =
    let config =
      {
        Serve.Load.default with
        Serve.Load.port = Serve.Server.port s.server;
        conns = 2;
        rate = 0.0;
        duration_s = 1.0;
        requests = (if ctx.smoke then 200 else 0);
        pairs = order;
        seed = ctx.seed + k;
      }
    in
    let r, seconds = timed (fun () -> span "serve.load" (fun () -> Serve.Load.run config)) in
    match r with
    | Error e ->
        fail c "round %d: %s" k e;
        { units = 0.0; seconds }
    | Ok r ->
        let bad = r.Serve.Load.failed + r.Serve.Load.wrong + r.Serve.Load.timeouts in
        c.attempted <- c.attempted + r.Serve.Load.completed + r.Serve.Load.failed;
        if bad > 0 then begin
          fail c "round %d: %d failed, %d wrong, %d timed out" k r.Serve.Load.failed
            r.Serve.Load.wrong r.Serve.Load.timeouts;
          c.failed <- c.failed + bad - 1
        end;
        reports := r :: !reports;
        { units = float_of_int r.Serve.Load.completed; seconds }
  in
  let rs = run_rounds ctx ~obs_on:true round in
  (* Post-run sweep: every pair's reply over the wire equals the snapshot. *)
  let sweep =
    with_client c s (fun cl ->
        List.map
          (fun (origin, dest) ->
            c.attempted <- c.attempted + 1;
            let reply =
              Serve.Client.call ~timeout_s:2.0 cl (Serve.Wire.Path_query { origin; dest })
            in
            if not (path_matches s ~origin ~dest reply) then
              fail c "sweep: pair %d,%d disagrees with State.resolve" origin dest;
            let _, level, nodes = Serve.State.resolve s.state ~origin ~dest in
            Printf.sprintf "%d %d %d %s" origin dest level
              (String.concat "," (List.map string_of_int nodes)))
          s.pairs)
  in
  committed c ctx ~workload:"serve-read" (digest (Option.value sweep ~default:[]));
  let pct f = median (List.map f !reports) in
  (* Load times requests with gettimeofday, whose float value today
     resolves 0.24 us; the mean of the rounds' exact p50s keeps the
     reading off that grid. *)
  let mean_p50 =
    ratio (List.fold_left (fun acc r -> acc +. r.Serve.Load.p50_ms) 0.0 !reports)
      (float_of_int (List.length !reports))
  in
  let stream = if ctx.trace then replay_stream c s order else [] in
  {
    checks = c;
    metrics =
      setup @ common rs @ stream
      @ [
          ("throughput_per_s", rate rs.untraced);
          ("latency_p50_ms", mean_p50);
          ("serve.p90_ms", pct (fun r -> r.Serve.Load.p90_ms));
          ("serve.p99_ms", pct (fun r -> r.Serve.Load.p99_ms));
          ("serve.max_ms", pct (fun r -> r.Serve.Load.max_ms));
        ];
  }

(* ----------------------------- serve-write ------------------------- *)

type update = {
  origin : int;
  dest : int;
  bps : float;
  reported : float option;  (** power of the snapshot that made it visible *)
}

let serve_write ctx =
  let c = checks () in
  let per_round = if ctx.smoke then 10 else 100 in
  let s, setup = set_up ctx ~release:stop_server start_server in
  Fun.protect ~finally:(fun () -> stop_server s) @@ fun () ->
  let pairs = Array.of_list s.pairs in
  let rng = Eutil.Prng.create ctx.seed in
  let tables = Response.Framework.precompute_cached ~jobs:1 s.g s.power ~pairs:s.pairs in
  let expected = Traffic.Matrix.copy s.demand in
  let latencies = ref [] in
  let visible = ref [] in
  let polls = ref 0 in
  let first_round = ref [] in
  let rec poll cl t0 target =
    if since_s t0 > 2.0 then None
    else begin
      Unix.sleepf 1e-4;
      incr polls;
      match Serve.Client.call ~timeout_s:2.0 cl Serve.Wire.Stats with
      | Ok (Serve.Wire.Stats_reply st) when st.Serve.Wire.s_version >= target -> Some st
      | Ok (Serve.Wire.Stats_reply _) -> poll cl t0 target
      | Ok _ | Error _ -> None
    end
  in
  (* One closed-loop update: write, poll Stats every 100 us until the
     acknowledged generation is live (2 s limit), then read the pair back. *)
  let update cl =
    let origin, dest = pairs.(Eutil.Prng.int rng (Array.length pairs)) in
    let bps = Traffic.Matrix.get s.demand origin dest *. Eutil.Prng.range rng 0.5 2.0 in
    c.attempted <- c.attempted + 1;
    let t0 = now_ns () in
    match
      Serve.Client.call ~timeout_s:2.0 cl (Serve.Wire.Demand_update { origin; dest; bps })
    with
    | Ok (Serve.Wire.Ack { version }) ->
        let reported =
          match poll cl t0 version with
          | None ->
              fail c "update %d,%d (generation %d) not visible within 2 s" origin dest version;
              None
          | Some st ->
              latencies := since_s t0 :: !latencies;
              let reply =
                Serve.Client.call ~timeout_s:2.0 cl (Serve.Wire.Path_query { origin; dest })
              in
              if not (path_matches s ~origin ~dest reply) then
                fail c "read after update %d,%d disagrees with the live snapshot" origin dest;
              Some st.Serve.Wire.s_power_percent
        in
        Some { origin; dest; bps; reported }
    | Ok _ | Error _ ->
        fail c "update %d,%d not acknowledged" origin dest;
        None
  in
  let round cl k =
    latencies := [];
    let acked, seconds =
      timed (fun () ->
          span "serve.updates" (fun () -> List.init per_round (fun _ -> update cl)))
    in
    let acked = List.filter_map Fun.id acked in
    (* Read-your-write on the figures: a visible snapshot reports the power
       of exactly the demands written so far. *)
    List.iter
      (fun u ->
        Traffic.Matrix.set expected u.origin u.dest u.bps;
        Option.iter
          (fun p ->
            let want = (Response.Framework.evaluate tables s.power expected).power_percent in
            if not (Float.equal p want) then
              fail c "update %d,%d: reported power %h, expected %h" u.origin u.dest p want)
          u.reported)
      acked;
    if k = 0 then first_round := acked;
    if not !tracing then visible := Array.of_list !latencies :: !visible;
    { units = float_of_int per_round; seconds }
  in
  let rs =
    Option.value ~default:no_rounds
      (with_client c s (fun cl -> run_rounds ctx ~obs_on:true (round cl)))
  in
  committed c ctx ~workload:"serve-write"
    (digest
       (List.map
          (fun u ->
            Printf.sprintf "%d %d %h %s" u.origin u.dest u.bps
              (match u.reported with Some p -> Printf.sprintf "%h" p | None -> "-"))
          !first_round));
  let visible = Array.to_list (Array.concat !visible) in
  let updates = total_units rs.untraced +. total_units rs.traced in
  let bench_ms f = 1e3 *. median (List.init 20 (fun _ -> snd (timed f))) in
  let layer =
    if ctx.trace then
      [
        ( "core.evaluate_ms",
          bench_ms (fun () -> ignore (Response.Framework.evaluate tables s.power expected)) );
        ( "core.precompute_cached_hit_ms",
          bench_ms (fun () ->
              ignore (Response.Framework.precompute_cached ~jobs:1 s.g s.power ~pairs:s.pairs)) );
      ]
    else []
  in
  {
    checks = c;
    metrics =
      setup @ common rs @ layer
      @ [
          ("throughput_per_s", rate rs.untraced);
          ("latency_p50_ms", 1e3 *. median visible);
          ("serve.update_visible_p99_ms", 1e3 *. quantile visible 0.99);
          ("serve.recompute_ms_p50", 1e3 *. histogram_quantile "serve_recompute_seconds" 0.5);
          ("serve.swaps_per_update", ratio (counter "serve_snapshot_swaps_total") rs.live_units);
          ("serve.polls_per_update", ratio (float_of_int !polls) updates);
        ];
  }

let all =
  [
    {
      name = "geant-replay";
      summary = "Replay.run (greedy) over a seeded 15-day GEANT-like trace";
      run = geant_replay;
    };
    {
      name = "fattree-elastic";
      summary = "Elastic.minimal_subset + Critical_paths.observe per hour, k=12 fat-tree";
      run = fattree_elastic;
    };
    {
      name = "geant-chaos";
      summary = "Fault.Harness trials with link faults through Netsim.Sim, GEANT tables";
      run = geant_chaos;
    };
    {
      name = "serve-read";
      summary = "closed-loop path queries against an in-process respctld, 2 connections";
      run = serve_read;
    };
    {
      name = "serve-write";
      summary = "closed-loop demand updates polled until visible, then read back";
      run = serve_write;
    };
  ]
