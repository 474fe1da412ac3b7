(* Tests for the discrete-event network simulator: rate allocation, sleeping,
   wake-up latency, failure handling and the REsPoNseTE loop end-to-end. *)

module G = Topo.Graph
module Sim = Netsim.Sim

let fig7_config =
  {
    Sim.te =
      (let module U = Eutil.Units in
       {
         Response.Te.default_config with
           Response.Te.probe_period = U.seconds 0.1;
         util_threshold = U.ratio 0.9;
         low_threshold = U.ratio 0.55;
         hysteresis = U.seconds 0.05;
         shift_fraction = U.ratio 1.0;
       });
    wake_time = 0.01;
    failure_detection = 0.1;
    idle_timeout = 0.3;
    sample_interval = 0.05;
    te_start = 0.0;
    transition_energy = 0.0;
  }

let power_of ex = Power.Model.cisco12000 ex.Topo.Example.graph

let run_fig7 ?(events = []) ?initial_splits ?(duration = 3.0) ?(config = fig7_config) () =
  let ex, tables = Fixtures.fig3_tables () in
  let demand = Fixtures.fig7_demand ex in
  let events = Sim.Set_demand (0.0, demand) :: events in
  let r = Sim.run ~config ?initial_splits ~tables ~power:(power_of ex) ~events ~duration () in
  (ex, tables, r)

let middle_link ex =
  Fixtures.link_between ex.Topo.Example.graph ex.Topo.Example.e ex.Topo.Example.h

let upper_link ex =
  Fixtures.link_between ex.Topo.Example.graph ex.Topo.Example.d ex.Topo.Example.g

let lower_link ex =
  Fixtures.link_between ex.Topo.Example.graph ex.Topo.Example.f ex.Topo.Example.j

let sample_near r t =
  let best = ref r.Sim.samples.(0) in
  Array.iter
    (fun sm ->
      if abs_float (sm.Sim.time -. t) < abs_float (!best.Sim.time -. t) then best := sm)
    r.Sim.samples;
  !best

let test_delivers_demand () =
  let _, _, r = run_fig7 () in
  Alcotest.(check bool)
    (Printf.sprintf "delivered %.2f" r.Sim.delivered_fraction)
    true
    (r.Sim.delivered_fraction > 0.95);
  let last = sample_near r 3.0 in
  Alcotest.(check (float 1e5)) "rate matches demand" 5e6 last.Sim.rate_total

let test_steady_state_on_always_on () =
  (* Default state: everything on the middle path, on-demand links asleep. *)
  let ex, _, r = run_fig7 () in
  let last = sample_near r 3.0 in
  Alcotest.(check bool) "middle carries everything" true
    (last.Sim.link_rates.(middle_link ex) > 4.9e6);
  Alcotest.(check (float 1.0)) "upper sleeps" 0.0 last.Sim.link_rates.(upper_link ex);
  Alcotest.(check (float 1.0)) "lower sleeps" 0.0 last.Sim.link_rates.(lower_link ex);
  (* Power below a fully powered network: some links are asleep. *)
  Alcotest.(check bool) "power savings" true (last.Sim.power_percent < 95.0)

let test_explicit_initial_split_consolidates () =
  let ex, tables = Fixtures.fig3_tables () in
  let pairs = Response.Tables.pairs tables in
  let initial_splits = List.map (fun od -> (od, [| 0.5; 0.5 |])) pairs in
  let demand = Fixtures.fig7_demand ex in
  let r =
    Sim.run ~config:fig7_config ~initial_splits ~tables ~power:(power_of ex)
      ~events:[ Sim.Set_demand (0.0, demand) ]
      ~duration:3.0 ()
  in
  (* Early on, the on-demand paths carry traffic... *)
  let early = sample_near r 0.05 in
  Alcotest.(check bool) "upper initially used" true (early.Sim.link_rates.(upper_link ex) > 1e6);
  (* ...and after consolidation they are idle. *)
  let late = sample_near r 3.0 in
  Alcotest.(check (float 1.0)) "upper drained" 0.0 late.Sim.link_rates.(upper_link ex);
  Alcotest.(check bool) "middle carries all" true (late.Sim.link_rates.(middle_link ex) > 4.9e6)

let test_failure_restores_traffic () =
  let ex, tables = Fixtures.fig3_tables () in
  let g = ex.Topo.Example.graph in
  let eh = Fixtures.link_between g ex.Topo.Example.e ex.Topo.Example.h in
  let demand = Fixtures.fig7_demand ex in
  let r =
    Sim.run ~config:fig7_config ~tables ~power:(power_of ex)
      ~events:[ Sim.Set_demand (0.0, demand); Sim.Fail_link (1.5, eh) ]
      ~duration:4.0 ()
  in
  (* Before the failure the middle path carries everything. *)
  let before = sample_near r 1.4 in
  Alcotest.(check bool) "middle before" true (before.Sim.link_rates.(eh) > 4.9e6);
  (* Shortly after, delivery drops... *)
  let during = sample_near r 1.55 in
  Alcotest.(check bool) "dip during detection" true (during.Sim.rate_total < 4.9e6);
  (* ...and within ~detection + wake + a couple of probe periods it is back on
     the on-demand paths. *)
  let after = sample_near r 2.5 in
  Alcotest.(check bool)
    (Printf.sprintf "restored (%.1f Mbit/s)" (after.Sim.rate_total /. 1e6))
    true (after.Sim.rate_total > 4.9e6);
  Alcotest.(check bool) "upper now used" true (after.Sim.link_rates.(upper_link ex) > 2.0e6);
  Alcotest.(check bool) "lower now used" true (after.Sim.link_rates.(lower_link ex) > 2.0e6);
  Alcotest.(check (float 1.0)) "middle dead" 0.0 after.Sim.link_rates.(eh)

let test_wake_delay_gates_recovery () =
  (* With a 1 s wake time, recovery from the failure takes at least
     detection + wake. *)
  let ex, tables = Fixtures.fig3_tables () in
  let g = ex.Topo.Example.graph in
  let eh = Fixtures.link_between g ex.Topo.Example.e ex.Topo.Example.h in
  let demand = Fixtures.fig7_demand ex in
  let config = { fig7_config with Sim.wake_time = 1.0 } in
  let r =
    Sim.run ~config ~tables ~power:(power_of ex)
      ~events:[ Sim.Set_demand (0.0, demand); Sim.Fail_link (1.5, eh) ]
      ~duration:5.0 ()
  in
  (* At 2.0 s (0.5 s after failure) the wake has not finished. *)
  let mid = sample_near r 2.0 in
  Alcotest.(check bool) "still down" true (mid.Sim.rate_total < 1e6);
  let after = sample_near r 4.5 in
  Alcotest.(check bool) "recovered after wake" true (after.Sim.rate_total > 4.9e6)

let test_repair_beats_detection () =
  (* Regression: the link fails at 1.5 and is repaired at 1.55, before the
     0.1 s detection delay elapses. The Detect event at 1.6 is stale — it
     must not mark the (healthy, repaired) link as failed, so traffic stays
     on the middle path for the rest of the run. *)
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let read () =
        Option.value
          (Obs.Registry.value Obs.Registry.default "netsim_stale_detects_total")
          ~default:0.0
      in
      let stale0 = read () in
      let ex, tables = Fixtures.fig3_tables () in
      let g = ex.Topo.Example.graph in
      let eh = Fixtures.link_between g ex.Topo.Example.e ex.Topo.Example.h in
      let demand = Fixtures.fig7_demand ex in
      let r =
        Sim.run ~config:fig7_config ~tables ~power:(power_of ex)
          ~events:
            [ Sim.Set_demand (0.0, demand); Sim.Fail_link (1.5, eh); Sim.Repair_link (1.55, eh) ]
          ~duration:4.0 ()
      in
      let after = sample_near r 3.5 in
      Alcotest.(check bool)
        (Printf.sprintf "middle still carries traffic (%.1f Mbit/s)"
           (after.Sim.link_rates.(eh) /. 1e6))
        true
        (after.Sim.link_rates.(eh) > 4.9e6);
      Alcotest.(check (float 1.0)) "no spurious failover to upper" 0.0
        after.Sim.link_rates.(upper_link ex);
      Alcotest.(check bool) "stale detect counted" true (read () -. stale0 >= 1.0))

let test_rejected_wake_feeds_back () =
  (* The upper on-demand link fails silently while asleep, then an overload
     makes A's agent shift towards it and ask for a wake. The request must
     be rejected, counted, and turned into control-plane knowledge on the
     spot — the agent re-plans immediately instead of blackholing traffic on
     the dead path until the (slow, 1 s here) detection delay elapses. *)
  let ex, tables = Fixtures.fig3_tables () in
  let g = ex.Topo.Example.graph in
  let m = Traffic.Matrix.create (G.node_count g) in
  Traffic.Matrix.set m ex.Topo.Example.a ex.Topo.Example.k 16e6;
  let config = { fig7_config with Sim.failure_detection = 1.0 } in
  let r =
    Sim.run ~config ~tables ~power:(power_of ex)
      ~events:[ Sim.Fail_link (0.05, upper_link ex); Sim.Set_demand (0.3, m) ]
      ~duration:3.0 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "wake rejected (%d)" r.Sim.rejected_wake_count)
    true (r.Sim.rejected_wake_count >= 1);
  (* Well before the detection delay would have fired, traffic is back on
     the (bottlenecked but alive) middle path rather than on the dead one. *)
  let before_detect = sample_near r 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "middle keeps carrying (%.1f Mbit/s)" (before_detect.Sim.rate_total /. 1e6))
    true
    (before_detect.Sim.rate_total > 9.5e6);
  Alcotest.(check (float 1.0)) "dead upper path stays empty" 0.0
    before_detect.Sim.link_rates.(upper_link ex)

let test_idle_links_sleep_and_power_follows () =
  let _, _, r = run_fig7 ~duration:3.0 () in
  let last = sample_near r 3.0 in
  (* 10 links exist; steady state should keep only the 4 middle-path links
     (A-E, C-E, E-H, H-K) awake. *)
  Alcotest.(check bool)
    (Printf.sprintf "links active = %d" last.Sim.links_active)
    true
    (last.Sim.links_active <= 5);
  Alcotest.(check bool) "power follows" true (last.Sim.power_percent < 80.0)

let test_demand_wakes_sleeping_paths () =
  (* Demand arrives only at t = 2 s, long after every link fell asleep. The
     data plane wakes the always-on path and traffic flows. *)
  let ex, tables = Fixtures.fig3_tables () in
  let demand = Fixtures.fig7_demand ex in
  let r =
    Sim.run ~config:fig7_config ~tables ~power:(power_of ex)
      ~events:[ Sim.Set_demand (2.0, demand) ]
      ~duration:4.0 ()
  in
  let quiet = sample_near r 1.5 in
  Alcotest.(check int) "everything asleep when idle" 0 quiet.Sim.links_active;
  let after = sample_near r 3.5 in
  Alcotest.(check bool) "traffic flows after wake" true (after.Sim.rate_total > 4.9e6)

let test_overload_activates_on_demand_paths () =
  (* Push 16 Mbit/s through the 10 Mbit/s middle path: the TE must spread to
     the on-demand paths, restoring full delivery. *)
  let ex, tables = Fixtures.fig3_tables () in
  let g = ex.Topo.Example.graph in
  let m = Traffic.Matrix.create (G.node_count g) in
  Traffic.Matrix.set m ex.Topo.Example.a ex.Topo.Example.k 8e6;
  Traffic.Matrix.set m ex.Topo.Example.c ex.Topo.Example.k 8e6;
  let r =
    Sim.run ~config:fig7_config ~tables ~power:(power_of ex)
      ~events:[ Sim.Set_demand (0.0, m) ]
      ~duration:3.0 ()
  in
  let last = sample_near r 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "delivers %.1f of 16 Mbit/s" (last.Sim.rate_total /. 1e6))
    true
    (last.Sim.rate_total > 15e6);
  Alcotest.(check bool) "upper active" true (last.Sim.link_rates.(upper_link ex) > 1e6)

let test_fattree_sine_power_tracks_demand () =
  (* A small end-to-end datacenter scenario: k=4 fat-tree, far traffic
     following a sine; network power must be higher at the crest than at the
     trough (energy proportionality over time, Figure 4 / 8b). *)
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let power = Power.Model.commodity_dc g in
  let pairs = Traffic.Sine.fattree_pairs ft Traffic.Sine.Far in
  let tables = Response.Framework.precompute g power ~pairs in
  let period = Eutil.Units.seconds 20.0 in
  let events =
    List.init 21 (fun i ->
        let t = float_of_int i in
        Sim.Set_demand (t, Traffic.Sine.fattree ft Traffic.Sine.Far ~peak:(Eutil.Units.bps 4e8) ~period t))
  in
  let config =
    {
      fig7_config with
      Sim.te =
        {
          fig7_config.Sim.te with
          util_threshold = Eutil.Units.ratio 0.8;
          shift_fraction = Eutil.Units.ratio 0.5;
        };
      sample_interval = 0.25;
      idle_timeout = 1.0;
      wake_time = 0.1;
    }
  in
  let r = Sim.run ~config ~tables ~power ~events ~duration:20.0 () in
  let trough = sample_near r 1.0 in
  let crest = sample_near r 11.0 in
  Alcotest.(check bool)
    (Printf.sprintf "crest %.0f%% > trough %.0f%%" crest.Sim.power_percent trough.Sim.power_percent)
    true
    (crest.Sim.power_percent > trough.Sim.power_percent);
  Alcotest.(check bool) "delivered most demand" true (r.Sim.delivered_fraction > 0.85)


let test_obs_transition_counters () =
  (* The observability counters must agree exactly with the transition counts
     the simulator itself reports. Scenario: the initial always-on links idle
     out and sleep, then demand at t = 2 wakes them through the data plane. *)
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let read name =
        Option.value (Obs.Registry.value Obs.Registry.default name) ~default:0.0
      in
      let wake0 = read "netsim_wake_transitions_total" in
      let sleep0 = read "netsim_sleep_transitions_total" in
      let ex, tables = Fixtures.fig3_tables () in
      let demand = Fixtures.fig7_demand ex in
      let r =
        Sim.run ~config:fig7_config ~tables ~power:(power_of ex)
          ~events:[ Sim.Set_demand (2.0, demand) ]
          ~duration:4.0 ()
      in
      Alcotest.(check bool) "scenario has sleeps" true (r.Sim.sleep_count > 0);
      Alcotest.(check bool) "scenario has wakes" true (r.Sim.wake_count > 0);
      Alcotest.(check int) "wake counter matches result"
        r.Sim.wake_count
        (int_of_float (read "netsim_wake_transitions_total" -. wake0));
      Alcotest.(check int) "sleep counter matches result"
        r.Sim.sleep_count
        (int_of_float (read "netsim_sleep_transitions_total" -. sleep0)))

(* Property: on random demands over the Fig. 3 topology the simulator keeps
   its physical invariants — achieved rate never exceeds demand, power stays
   within [0, 100] %, delivery within [0, 1]. *)
let prop_sim_invariants =
  QCheck.Test.make ~name:"simulator invariants on random scenarios" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let ex, tables = Fixtures.fig3_tables () in
      let g = ex.Topo.Example.graph in
      let events =
        List.init 4 (fun i ->
            let m = Traffic.Matrix.create (G.node_count g) in
            Traffic.Matrix.set m ex.Topo.Example.a ex.Topo.Example.k
              (Eutil.Prng.range rng 0.1e6 12e6);
            Traffic.Matrix.set m ex.Topo.Example.c ex.Topo.Example.k
              (Eutil.Prng.range rng 0.1e6 12e6);
            Sim.Set_demand (0.5 *. float_of_int i, m))
      in
      let r = Sim.run ~config:fig7_config ~tables ~power:(power_of ex) ~events ~duration:3.0 () in
      r.Sim.delivered_fraction >= 0.0
      && r.Sim.delivered_fraction <= 1.0 +. 1e-9
      && Array.for_all
           (fun sm ->
             sm.Sim.power_percent >= -1e-9
             && sm.Sim.power_percent <= 100.0 +. 1e-9
             && sm.Sim.rate_total <= sm.Sim.demand_total +. 1.0)
           r.Sim.samples)

(* Malformed [initial_splits] raise: a pair named twice (links would wake
   for one of its splits while TE keeps the other), a pair the tables do not
   hold, and a split of the wrong length. *)
let run_with_splits initial_splits () =
  let ex, tables = Fixtures.fig3_tables () in
  ignore
    (Sim.run ~config:fig7_config ~initial_splits ~tables ~power:(power_of ex) ~events:[]
       ~duration:0.1 ())

let first_pair () =
  let _, tables = Fixtures.fig3_tables () in
  match Response.Tables.pairs tables with
  | od :: _ -> od
  | [] -> Alcotest.fail "the figure 3 tables hold no pair"

let test_initial_splits_repeated_pair () =
  let od = first_pair () in
  Alcotest.check_raises "repeated pair"
    (Invalid_argument "Sim.run: repeated pair in initial_splits")
    (run_with_splits [ (od, [| 1.0; 0.0 |]); (od, [| 0.0; 1.0 |]) ])

let test_initial_splits_unknown_pair () =
  let o, _ = first_pair () in
  Alcotest.check_raises "unknown pair" (Invalid_argument "Te.force_split: unknown pair")
    (run_with_splits [ ((o, o), [| 1.0 |]) ])

let test_initial_splits_wrong_arity () =
  Alcotest.check_raises "wrong arity" (Invalid_argument "Te.force_split: wrong arity")
    (run_with_splits [ (first_pair (), [| 1.0; 0.0; 0.0 |]) ])

(* Oracle: the rate ledger re-decides only dirty pairs, yet every run must
   equal the frozen rebuild-everything simulator bit for bit. Scenarios mix
   GÉANT and fat-tree tables, link, node and SRLG faults, a flap, a surge,
   random TE settings and random initial splits held until [te_start]. *)

type setup = { tables : Response.Tables.t; power : Power.Model.t; base : Traffic.Matrix.t }

let geant_setup =
  lazy
    (let g = Topo.Geant.make () in
     let power = Power.Model.cisco12000 g in
     let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.7 in
     {
       tables = Response.Framework.precompute g power ~pairs;
       power;
       base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) ();
     })

let fattree_setup =
  lazy
    (let g = (Topo.Fattree.make 4).Topo.Fattree.graph in
     let power = Power.Model.commodity_dc g in
     let pairs = Traffic.Gravity.random_node_pairs g ~seed:7 ~fraction:0.7 in
     {
       tables = Response.Framework.precompute g power ~pairs;
       power;
       base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 2.0) ();
     })

let scenario seed =
  let rng = Eutil.Prng.create seed in
  let coin () = Eutil.Prng.int rng 2 = 0 in
  let range = Eutil.Prng.range rng in
  let { tables; power; base } = Lazy.force (if coin () then geant_setup else fattree_setup) in
  let g = Response.Tables.graph tables in
  let duration = range 0.5 2.0 in
  let process lo hi = Some { Fault.Scenario.mtbf = range lo hi; mttr = range 0.05 0.8 } in
  let srlgs =
    if coin () then Fault.Scenario.random_srlgs g rng ~groups:(1 + Eutil.Prng.int rng 2) ~size:2
    else []
  in
  let spec =
    {
      Fault.Scenario.seed;
      duration;
      warmup = range 0.0 (duration /. 4.0);
      link_faults = (if coin () then process 0.3 4.0 else None);
      node_faults = (if coin () then process 0.5 6.0 else None);
      srlgs;
      srlg_faults = (if srlgs = [] then None else process 0.5 4.0);
      flapping =
        (if coin () then
           Some
             {
               Fault.Scenario.flap_link = None;
               flap_period = range 0.1 0.6;
               flap_cycles = 1 + Eutil.Prng.int rng 4;
               flap_start = range 0.0 (duration /. 2.0);
             }
         else None);
      surges =
        (if coin () then
           [
             {
               Fault.Scenario.surge_at = range 0.0 duration;
               surge_factor = range 1.2 3.0;
               surge_duration = range 0.1 0.8;
             };
           ]
         else []);
    }
  in
  let te_start = if coin () then range 0.05 0.5 else 0.0 in
  let config =
    {
      Sim.te =
        {
          Response.Te.default_config with
          Response.Te.probe_period = Eutil.Units.seconds (range 0.03 0.15);
          panic_retries = Eutil.Prng.int rng 3;
          panic_backoff = Eutil.Units.seconds (range 0.02 0.2);
        };
      wake_time = range 0.005 0.3;
      failure_detection = range 0.01 0.3;
      idle_timeout = range 0.1 1.0;
      sample_interval = (if coin () then 0.05 else 0.1);
      te_start;
      transition_energy = range 0.0 5.0;
    }
  in
  (* Random splits over a random half of the pairs, zeros (and all-zero
     splits) included. *)
  let initial_splits =
    if te_start = 0.0 then []
    else
      List.filter_map
        (fun (o, d) ->
          match Response.Tables.find tables o d with
          | Some e when coin () ->
              let n = Array.length (Response.Tables.paths e) in
              Some ((o, d), Array.init n (fun _ -> if coin () then 0.0 else range 0.0 1.0))
          | _ -> None)
        (Response.Tables.pairs tables)
  in
  let events = Fault.Scenario.events spec g ~base in
  (config, initial_splits, tables, power, events, duration)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The first field where two results differ, if any. *)
let result_mismatch (a : Sim.result) (b : Sim.result) =
  let floats name x y =
    if same_float x y then None else Some (Printf.sprintf "%s: %h vs %h" name x y)
  in
  let ints name x y = if x = y then None else Some (Printf.sprintf "%s: %d vs %d" name x y) in
  let pair_rates (x : Sim.sample) (y : Sim.sample) =
    List.length x.Sim.pair_rates = List.length y.Sim.pair_rates
    && List.for_all2
         (fun ((o, d), r) ((o', d'), r') -> o = o' && d = d' && same_float r r')
         x.Sim.pair_rates y.Sim.pair_rates
  in
  let sample i (x : Sim.sample) (y : Sim.sample) =
    let at name = Printf.sprintf "sample %d %s" i name in
    List.find_map Fun.id
      [
        floats (at "time") x.Sim.time y.Sim.time;
        floats (at "power_watts") x.Sim.power_watts y.Sim.power_watts;
        floats (at "power_percent") x.Sim.power_percent y.Sim.power_percent;
        floats (at "demand_total") x.Sim.demand_total y.Sim.demand_total;
        floats (at "rate_total") x.Sim.rate_total y.Sim.rate_total;
        (if pair_rates x y then None else Some (at "pair_rates"));
        (if
           Array.length x.Sim.link_rates = Array.length y.Sim.link_rates
           && Array.for_all2 same_float x.Sim.link_rates y.Sim.link_rates
         then None
         else Some (at "link_rates"));
        ints (at "links_active") x.Sim.links_active y.Sim.links_active;
      ]
  in
  let samples =
    if Array.length a.Sim.samples <> Array.length b.Sim.samples then Some "sample count"
    else
      let rec first i =
        if i >= Array.length a.Sim.samples then None
        else
          match sample i a.Sim.samples.(i) b.Sim.samples.(i) with
          | Some m -> Some m
          | None -> first (i + 1)
      in
      first 0
  in
  List.find_map Fun.id
    [
      samples;
      ints "wake_count" a.Sim.wake_count b.Sim.wake_count;
      ints "sleep_count" a.Sim.sleep_count b.Sim.sleep_count;
      ints "rejected_wake_count" a.Sim.rejected_wake_count b.Sim.rejected_wake_count;
      ints "fallback_count" a.Sim.fallback_count b.Sim.fallback_count;
      floats "energy_joules" a.Sim.energy_joules b.Sim.energy_joules;
      floats "mean_power_percent" a.Sim.mean_power_percent b.Sim.mean_power_percent;
      floats "delivered_fraction" a.Sim.delivered_fraction b.Sim.delivered_fraction;
      floats "offered_bits" a.Sim.offered_bits b.Sim.offered_bits;
      floats "delivered_bits" a.Sim.delivered_bits b.Sim.delivered_bits;
      floats "lost_bits" a.Sim.lost_bits b.Sim.lost_bits;
    ]

let prop_ledger_matches_reference =
  QCheck.Test.make ~name:"ledger equals full-rebuild reference" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let config, initial_splits, tables, power, events, duration = scenario seed in
      let ledger = Sim.run ~config ~initial_splits ~tables ~power ~events ~duration () in
      let reference =
        Sim_reference.run ~config ~initial_splits ~tables ~power ~events ~duration ()
      in
      match result_mismatch ledger reference with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "seed %d: %s" seed m)

(* The ledger's counters: with Obs on, every pass is counted, and a GÉANT
   fault scenario re-decides far fewer pairs than a full rebuild (all of
   them on every pass) would. *)
let test_obs_rate_ledger_counters () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let read name = Option.value (Obs.Registry.value Obs.Registry.default name) ~default:0.0 in
      let passes0 = read "netsim_rate_passes_total" in
      let redecided0 = read "netsim_rate_pairs_redecided_total" in
      let { tables; power; base } = Lazy.force geant_setup in
      let spec = { Fault.Scenario.default with Fault.Scenario.seed = 1; duration = 1.0 } in
      let events = Fault.Scenario.events spec (Response.Tables.graph tables) ~base in
      ignore (Sim.run ~tables ~power ~events ~duration:1.0 ());
      let passes = read "netsim_rate_passes_total" -. passes0 in
      let redecided = read "netsim_rate_pairs_redecided_total" -. redecided0 in
      let pairs = float_of_int (List.length (Response.Tables.pairs tables)) in
      Alcotest.(check bool) (Printf.sprintf "%.0f passes" passes) true (passes > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%.0f pairs re-decided, under %.0f" redecided (passes *. pairs))
        true
        (redecided > 0.0 && redecided < 0.5 *. passes *. pairs))

(* Work counter: on the GÉANT seed 1 fault trial (10 s, MTBF 3 s) a pass
   re-decides fewer than 10 pairs on average. A ledger that re-decides
   every all-zero split on every pass, granted fallback or not, averages
   28.7 there. *)
let test_obs_rate_ledger_work () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let read name = Option.value (Obs.Registry.value Obs.Registry.default name) ~default:0.0 in
      let passes0 = read "netsim_rate_passes_total" in
      let redecided0 = read "netsim_rate_pairs_redecided_total" in
      let { tables; power; base } = Lazy.force geant_setup in
      let spec = { Fault.Scenario.default with Fault.Scenario.seed = 1; duration = 10.0 } in
      let events = Fault.Scenario.events spec (Response.Tables.graph tables) ~base in
      ignore (Sim.run ~tables ~power ~events ~duration:10.0 ());
      let passes = read "netsim_rate_passes_total" -. passes0 in
      let redecided = read "netsim_rate_pairs_redecided_total" -. redecided0 in
      Alcotest.(check bool) (Printf.sprintf "%.0f passes" passes) true (passes > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%.2f pairs re-decided per pass, under 10" (redecided /. passes))
        true
        (redecided < 10.0 *. passes))

(* Oracle: [Response.Te] reads each path's links from arrays built once,
   probes through pair handles and reads the link state from per-link
   arrays, yet every probe must return the frozen controller's actions
   (fed the same state through closures) and leave the same split, bit for
   bit. A case is a random probe sequence over a few pairs of the GÉANT or
   k = 4 fat-tree tables: time advancing by random steps (zero included),
   utilisations drawn from a small set of levels so that ties occur,
   random known-failed masks (all-failed ones included), occasional forced
   splits, and random panic retries and backoff. A split read in place
   before a probe must not change under it. [hits] counts the cases that
   reached each decision branch, read off the live controller's Obs
   counters. *)

let te_branches =
  [| "panic"; "Use_fallback"; "recover"; "overload shift"; "consolidation" |]

let te_branch_counts () =
  let read name = Option.value (Obs.Registry.value Obs.Registry.default name) ~default:0.0 in
  let recoveries =
    List.fold_left
      (fun acc (sm : Obs.Registry.sample) ->
        match sm.Obs.Registry.value with
        | Obs.Registry.Histogram_v h when sm.Obs.Registry.name = "te_recovery_seconds" ->
            acc + h.Obs.Registry.count
        | _ -> acc)
      0 (Obs.Registry.snapshot Obs.Registry.default)
  in
  [|
    read "te_panics_total";
    read "te_fallbacks_total";
    float_of_int recoveries;
    read "te_overload_shifts_total";
    read "te_consolidations_total";
  |]

let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_action a b =
  match (a, b) with
  | Response.Te.Wake x, Response.Te.Wake y -> List.equal Int.equal x y
  | Response.Te.Set_split x, Response.Te.Set_split y -> same_floats x y
  | Response.Te.Use_fallback, Response.Te.Use_fallback
  | Response.Te.Cancel_fallback, Response.Te.Cancel_fallback ->
      true
  | _ -> false

let prop_te_matches_reference hits =
  QCheck.Test.make ~name:"te equals frozen reference" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let pick xs = xs.(Eutil.Prng.int rng (Array.length xs)) in
      let chance p = Eutil.Prng.float rng < p in
      let { tables; _ } = Lazy.force (if chance 0.5 then geant_setup else fattree_setup) in
      let cfg =
        {
          Response.Te.default_config with
          Response.Te.panic_retries = Eutil.Prng.int rng 4;
          panic_backoff = Eutil.Units.seconds (Eutil.Prng.range rng 0.01 0.3);
        }
      in
      let live = Response.Te.create tables cfg and frozen = Te_reference.create tables cfg in
      let all_pairs = Array.of_list (Response.Tables.pairs tables) in
      let pairs = Array.init (1 + Eutil.Prng.int rng 3) (fun _ -> pick all_pairs) in
      let handles = Array.map (fun (o, d) -> Response.Te.pair live o d) pairs in
      let links = Topo.Graph.link_count (Response.Tables.graph tables) in
      let low = [| 0.0; 0.2; 0.35 |] and high = [| 0.9 *. 0.85; 0.9; 1.0; 1.5 |] in
      let levels = Array.concat [ low; [| 0.4; 0.5 |]; high ] in
      let util = Array.make links 0.0 and failed = Array.make links false in
      let before = te_branch_counts () in
      let now = ref 0.0 in
      let rec step i =
        if i = 0 then true
        else begin
          (* New utilisations, all from one regime: low, mixed or high. *)
          if chance 0.15 then begin
            let set = pick [| low; levels; high |] in
            Array.iteri (fun l _ -> util.(l) <- pick set) util
          end;
          (* A new mask: all links usable, none, or each down with 15%. *)
          if chance 0.2 then begin
            let mask = Eutil.Prng.float rng in
            Array.iteri
              (fun l _ ->
                failed.(l) <- mask >= 0.45 && (mask < 0.65 || chance 0.15))
              failed
          end;
          let k = Eutil.Prng.int rng (Array.length pairs) in
          let o, d = pairs.(k) in
          if chance 0.05 then begin
            let n = Array.length (Response.Te.shares handles.(k)) in
            let split = Array.init n (fun _ -> if chance 0.4 then 0.0 else pick levels) in
            Response.Te.force_split live o d split;
            Te_reference.force_split frozen o d split
          end;
          if not (chance 0.1) then now := !now +. Eutil.Prng.range rng 0.0 0.12;
          let link_util l = util.(l) and link_usable l = not failed.(l) in
          let read = Response.Te.shares handles.(k) in
          let read_copy = Array.copy read in
          let got = Response.Te.probe live handles.(k) ~now:!now ~util ~known_failed:failed in
          let want =
            Te_reference.on_probe frozen ~origin:o ~dest:d ~now:!now ~link_util ~link_usable
          in
          let fail what = QCheck.Test.fail_reportf "seed %d, %d steps left: %s" seed i what in
          if not (List.equal same_action got want) then fail "actions"
          else if not (same_floats (Response.Te.split live o d) (Te_reference.split frozen o d))
          then fail "split"
          else if not (same_floats (Response.Te.shares handles.(k)) (Response.Te.split live o d))
          then fail "shares"
          else if not (same_floats read read_copy) then fail "a split read in place changed"
          else step (i - 1)
        end
      in
      let ok = step (40 + Eutil.Prng.int rng 80) in
      let after = te_branch_counts () in
      Array.iteri (fun b n -> if after.(b) > n then hits.(b) <- hits.(b) + 1) before;
      ok)

(* Runs the property with Obs on, so the branch counters move, then reports
   how many cases reached each branch: a generator change that stops
   reaching one fails here instead of passing vacuously. *)
let te_oracle_case =
  let hits = Array.make (Array.length te_branches) 0 in
  let name, speed, run = QCheck_alcotest.to_alcotest (prop_te_matches_reference hits) in
  ( name,
    speed,
    fun () ->
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) run;
      Array.iteri
        (fun b branch ->
          Printf.printf "%s: %d cases\n" branch hits.(b);
          Alcotest.(check bool) (branch ^ " reached") true (hits.(b) > 0))
        te_branches )

let () =
  Alcotest.run "netsim"
    [
      ( "basic",
        [
          Alcotest.test_case "delivers demand" `Quick test_delivers_demand;
          Alcotest.test_case "steady state on always-on" `Quick test_steady_state_on_always_on;
          Alcotest.test_case "explicit initial split" `Quick test_explicit_initial_split_consolidates;
          Alcotest.test_case "idle sleep + power" `Quick test_idle_links_sleep_and_power_follows;
        ] );
      ( "failure",
        [
          Alcotest.test_case "failover restores traffic" `Quick test_failure_restores_traffic;
          Alcotest.test_case "wake delay gates recovery" `Quick test_wake_delay_gates_recovery;
          Alcotest.test_case "repair beats detection" `Quick test_repair_beats_detection;
          Alcotest.test_case "rejected wake feeds back" `Quick test_rejected_wake_feeds_back;
        ] );
      ( "splits",
        [
          Alcotest.test_case "repeated pair" `Quick test_initial_splits_repeated_pair;
          Alcotest.test_case "unknown pair" `Quick test_initial_splits_unknown_pair;
          Alcotest.test_case "wrong arity" `Quick test_initial_splits_wrong_arity;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "demand wakes paths" `Quick test_demand_wakes_sleeping_paths;
          Alcotest.test_case "overload activates on-demand" `Quick test_overload_activates_on_demand_paths;
          Alcotest.test_case "fat-tree sine" `Slow test_fattree_sine_power_tracks_demand;
          Alcotest.test_case "obs transition counters" `Quick test_obs_transition_counters;
          QCheck_alcotest.to_alcotest prop_sim_invariants;
          Alcotest.test_case "obs rate-ledger counters" `Quick test_obs_rate_ledger_counters;
          QCheck_alcotest.to_alcotest prop_ledger_matches_reference;
          Alcotest.test_case "rate-ledger work per pass" `Quick test_obs_rate_ledger_work;
          te_oracle_case;
        ] );
    ]
