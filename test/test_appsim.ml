(* Tests for the application workloads of Section 5.4: media streaming with
   play-out deadlines and the SPECweb-like web workload. *)

module G = Topo.Graph
module Path = Topo.Path

let abovenet = Topo.Rocketfuel.make Topo.Rocketfuel.abovenet
let abovenet_power = Power.Model.cisco12000 abovenet

let streaming_config =
  {
    Netsim.Sim.te =
      { Response.Te.default_config with probe_period = Eutil.Units.seconds 0.2 };
    wake_time = 0.1;
    failure_detection = 0.1;
    idle_timeout = 5.0;
    sample_interval = 0.25;
    te_start = 0.0;
    transition_energy = 0.0;
  }

let small_scenario ?(n_clients = 8) ?(bitrate = 600e3) ~tables () =
  let g = Response.Tables.graph tables in
  let rng = Eutil.Prng.create 99 in
  let nodes = G.traffic_nodes g in
  let source = nodes.(0) in
  let clients =
    List.init n_clients (fun i ->
        let node = nodes.(1 + Eutil.Prng.int rng (Array.length nodes - 1)) in
        { Appsim.Streaming.node; join_time = 0.1 *. float_of_int i })
  in
  {
    Appsim.Streaming.source;
    bitrate;
    block_duration = 1.0;
    startup_buffer = 5.0;
    clients;
    duration = 40.0;
  }

let abovenet_tables =
  lazy
    (let pairs = Fixtures.all_pairs abovenet in
     Response.Framework.precompute
       ~config:{ Response.Framework.default with latency_beta = Some 0.25 }
       abovenet abovenet_power ~pairs)

let test_streaming_low_load_plays () =
  let tables = Lazy.force abovenet_tables in
  let scenario = small_scenario ~tables () in
  let s = Appsim.Streaming.run ~config:streaming_config ~tables ~power:abovenet_power scenario in
  Alcotest.(check int) "stats per client" (List.length scenario.Appsim.Streaming.clients)
    (List.length s.Appsim.Streaming.per_client);
  Alcotest.(check bool)
    (Printf.sprintf "median playable %.0f%%" s.Appsim.Streaming.playable.Eutil.Stats.median)
    true
    (s.Appsim.Streaming.playable.Eutil.Stats.median >= 95.0);
  Alcotest.(check bool) "saves power meanwhile" true (s.Appsim.Streaming.mean_power_percent < 95.0)

let test_streaming_overload_hurts () =
  (* Per-client bitrate above what the 100/52 Mbit/s Rocketfuel links can
     deliver even across all installed paths: play-out must degrade below the
     low-load case. *)
  let tables = Lazy.force abovenet_tables in
  let low = Appsim.Streaming.run ~config:streaming_config ~tables ~power:abovenet_power
      (small_scenario ~n_clients:6 ~tables ())
  in
  let scenario = small_scenario ~n_clients:6 ~bitrate:250e6 ~tables () in
  let s = Appsim.Streaming.run ~config:streaming_config ~tables ~power:abovenet_power scenario in
  Alcotest.(check bool)
    (Printf.sprintf "median playable %.0f%% degraded vs %.0f%%"
       s.Appsim.Streaming.playable.Eutil.Stats.median low.Appsim.Streaming.playable.Eutil.Stats.median)
    true
    (s.Appsim.Streaming.playable.Eutil.Stats.median < 90.0
    && s.Appsim.Streaming.playable.Eutil.Stats.median
       < low.Appsim.Streaming.playable.Eutil.Stats.median)

let test_streaming_boxplot_ordering () =
  let tables = Lazy.force abovenet_tables in
  let scenario = small_scenario ~tables () in
  let s = Appsim.Streaming.run ~config:streaming_config ~tables ~power:abovenet_power scenario in
  let b = s.Appsim.Streaming.playable in
  Alcotest.(check bool) "ordered" true
    (b.Eutil.Stats.min <= b.Eutil.Stats.q1
    && b.Eutil.Stats.q1 <= b.Eutil.Stats.median
    && b.Eutil.Stats.median <= b.Eutil.Stats.q3
    && b.Eutil.Stats.q3 <= b.Eutil.Stats.max)

let test_web_file_sizes_deterministic () =
  let a = Appsim.Web.file_sizes Appsim.Web.default in
  let b = Appsim.Web.file_sizes Appsim.Web.default in
  Alcotest.(check bool) "same catalogue" true (a = b);
  Alcotest.(check int) "100 files" 100 (Array.length a);
  Array.iter (fun s -> Alcotest.(check bool) "positive size" true (s > 0.0)) a

let test_web_latency_components () =
  (* On a single 1 ms 1G link, a small file's latency is dominated by RTTs +
     server time. *)
  let g = Fixtures.line 2 in
  let p = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:1 ()) in
  let cfg = { Appsim.Web.default with requests = 200 } in
  let r =
    Appsim.Web.run g ~path_of:(fun _ -> Some p) ~background_util:(fun _ -> 0.0) ~clients:[ 1 ] cfg
  in
  (* 2 RTTs = 4 ms, server 2 ms; transfer of ~30-300 KB at 1G = 0.2-2 ms. *)
  Alcotest.(check bool) (Printf.sprintf "mean %.1f ms" (1e3 *. r.Appsim.Web.mean_latency)) true
    (r.Appsim.Web.mean_latency > 5e-3 && r.Appsim.Web.mean_latency < 20e-3);
  Alcotest.(check bool) "p95 >= mean-ish" true (r.Appsim.Web.p95_latency >= r.Appsim.Web.mean_latency /. 2.0)

let test_web_longer_paths_cost_more () =
  (* The REsPoNse-lat vs InvCap comparison shape: a 3-hop path is slower than
     the 1-hop path for the same workload. *)
  let g = Fixtures.square_with_diagonal () in
  let direct = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:2 ()) in
  let detour = Option.get (Routing.Disjoint.max_disjoint g ~protect:[ direct ] ~src:0 ~dst:2 ()) in
  let cfg = { Appsim.Web.default with requests = 500 } in
  let fast = Appsim.Web.run g ~path_of:(fun _ -> Some direct) ~background_util:(fun _ -> 0.0) ~clients:[ 2 ] cfg in
  let slow = Appsim.Web.run g ~path_of:(fun _ -> Some detour) ~background_util:(fun _ -> 0.0) ~clients:[ 2 ] cfg in
  let increase = Appsim.Web.compare_latency ~baseline:fast ~treatment:slow in
  Alcotest.(check bool) (Printf.sprintf "increase %.0f%%" increase) true (increase > 0.0)

let test_web_background_util_slows_transfer () =
  let g = Fixtures.line 2 in
  let p = Option.get (Routing.Dijkstra.shortest_path g ~src:0 ~dst:1 ()) in
  let cfg = { Appsim.Web.default with requests = 300; median_size = 5e6 } in
  let free = Appsim.Web.run g ~path_of:(fun _ -> Some p) ~background_util:(fun _ -> 0.0) ~clients:[ 1 ] cfg in
  let busy = Appsim.Web.run g ~path_of:(fun _ -> Some p) ~background_util:(fun _ -> 0.8) ~clients:[ 1 ] cfg in
  Alcotest.(check bool) "busy slower" true
    (busy.Appsim.Web.mean_latency > 2.0 *. free.Appsim.Web.mean_latency)

let () =
  Alcotest.run "appsim"
    [
      ( "streaming",
        [
          Alcotest.test_case "low load plays" `Slow test_streaming_low_load_plays;
          Alcotest.test_case "overload hurts" `Slow test_streaming_overload_hurts;
          Alcotest.test_case "boxplot ordering" `Slow test_streaming_boxplot_ordering;
        ] );
      ( "web",
        [
          Alcotest.test_case "deterministic catalogue" `Quick test_web_file_sizes_deterministic;
          Alcotest.test_case "latency components" `Quick test_web_latency_components;
          Alcotest.test_case "longer paths cost more" `Quick test_web_longer_paths_cost_more;
          Alcotest.test_case "background utilisation" `Quick test_web_background_util_slows_transfer;
        ] );
    ]
