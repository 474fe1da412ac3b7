type trial = {
  tr_seed : int;
  tr_offered_bits : float;
  tr_delivered_bits : float;
  tr_lost_bits : float;
  tr_availability : float;
  tr_pair_samples : int;
  tr_recoveries : float array;
  tr_sleep_ratio : float;
  tr_mean_power_percent : float;
  tr_wake_count : int;
  tr_sleep_count : int;
  tr_rejected_wakes : int;
  tr_fallback_routes : int;
}

type report = {
  base_seed : int;
  trials : trial array;
  availability : float;
  delivered_fraction : float;
  lost_fraction : float;
  offered_bits : float;
  delivered_bits : float;
  lost_bits : float;
  conservation_residual_bits : float;
  outages : int;
  recovery_p50 : float;
  recovery_p99 : float;
  recovery_max : float;
  sleep_ratio : float;
  mean_power_percent : float;
  rejected_wakes : int;
  fallback_routes : int;
}

let m_trials =
  Obs.Metric.Counter.create ~help:"Chaos trials executed" "fault_trials_total"

let m_outages =
  Obs.Metric.Counter.create ~help:"Pair outages observed across chaos trials"
    "fault_outages_total"

(* Demand matrix the simulator held at a sample time: the last Set_demand at
   or before it. The schedule is the ground truth the conservation and
   availability accounting measures against. *)
let demand_timeline events =
  List.filter_map
    (function Netsim.Sim.Set_demand (t, m) -> Some (t, m) | _ -> None)
    events
  |> List.sort (Eutil.Order.by fst Float.compare)

let demand_at timeline t =
  let rec go current = function
    | (t0, m) :: rest when t0 <= t +. 1e-9 -> go (Some m) rest
    | _ -> current
  in
  go None timeline

(* Availability and outage durations for one trial. A pair-sample counts
   when the pair has demand and the sample itself saw demand (the very
   first sample can race the t=0 demand event in the heap); it is served
   when the achieved rate reaches [threshold] of the demand. Maximal runs
   of unserved samples are outages; one still open at the end counts with
   its censored duration. *)
let pair_availability ~threshold ~interval ~pairs ~timeline (samples : Netsim.Sim.sample array)
    =
  let counted = ref 0 and served = ref 0 in
  let recoveries = ref [] in
  (* Sample-major walk with per-pair run counters. [pairs] and each
     sample's [pair_rates] are both in (origin, destination) order, so one
     merge walk finds every pair's rate; a pair with no rate gets 0. *)
  let pairs_arr = Array.of_list pairs in
  let open_run = Array.make (Array.length pairs_arr) 0 in
  let close_run k =
    if open_run.(k) > 0 then begin
      recoveries := (float_of_int open_run.(k) *. interval) :: !recoveries;
      open_run.(k) <- 0
    end
  in
  let rates = ref [] in
  (* Drops the rates of the pairs before [od] and returns [od]'s rate. *)
  let rec rate_of od =
    match !rates with
    | (od', r) :: rest ->
        let c = Eutil.Order.int_pair od' od in
        if c < 0 then begin
          rates := rest;
          rate_of od
        end
        else if c = 0 then r
        else 0.0
    | [] -> 0.0
  in
  Array.iter
    (fun sm ->
      if sm.Netsim.Sim.demand_total > 0.0 then begin
        match demand_at timeline sm.Netsim.Sim.time with
        | None -> ()
        | Some m ->
            rates := sm.Netsim.Sim.pair_rates;
            Array.iteri
              (fun k ((o, d) as od) ->
                let dem = Traffic.Matrix.get m o d in
                if dem > 0.0 then begin
                  incr counted;
                  let rate = rate_of od in
                  if rate +. 1e-9 >= threshold *. dem then begin
                    incr served;
                    close_run k
                  end
                  else open_run.(k) <- open_run.(k) + 1
                end)
              pairs_arr
      end)
    samples;
  Array.iteri (fun k _ -> close_run k) pairs_arr;
  let availability =
    if !counted = 0 then 1.0
    else float_of_int !served /. float_of_int (max 1 !counted)
  in
  (availability, !counted, Array.of_list (List.rev !recoveries))

let sleep_ratio_of ~links (samples : Netsim.Sim.sample array) =
  if Array.length samples = 0 || links = 0 then 0.0
  else
    Array.fold_left
      (fun acc sm ->
        acc +. (1.0 -. (float_of_int sm.Netsim.Sim.links_active /. float_of_int links)))
      0.0 samples
    /. float_of_int (Array.length samples)

let conservation_tolerance = 1e-6

(* Trial [k] of a chaos run, derived entirely from [spec.seed + k]: the
   scenario builds its own PRNG from that seed and the simulator state is
   trial-local, so distinct trials share nothing but the read-only tables.
   The only shared state touched is the Obs counters, which shard
   per-domain (see Obs.Metric). This is a certified parallel entrypoint
   declared in check/analyze.json. *)
let run_trial ~config ~threshold ~tables ~power ~base ~spec ~pairs ~links k =
  let spec = { spec with Scenario.seed = spec.Scenario.seed + k } in
  let events = Scenario.events spec (Response.Tables.graph tables) ~base in
  let r =
    Netsim.Sim.run ~config ~tables ~power ~events ~duration:spec.Scenario.duration ()
  in
  Obs.Metric.Counter.incr m_trials;
  let residual =
    Float.abs (r.Netsim.Sim.offered_bits -. (r.Netsim.Sim.delivered_bits +. r.Netsim.Sim.lost_bits))
  in
  if residual > conservation_tolerance *. Float.max 1.0 r.Netsim.Sim.offered_bits then
    invalid_arg
      (Printf.sprintf "Harness.run: traffic not conserved (residual %.3e bits)" residual);
  let timeline = demand_timeline events in
  let availability, counted, recoveries =
    pair_availability ~threshold ~interval:config.Netsim.Sim.sample_interval ~pairs
      ~timeline r.Netsim.Sim.samples
  in
  Obs.Metric.Counter.add_int m_outages (Array.length recoveries);
  {
    tr_seed = spec.Scenario.seed;
    tr_offered_bits = r.Netsim.Sim.offered_bits;
    tr_delivered_bits = r.Netsim.Sim.delivered_bits;
    tr_lost_bits = r.Netsim.Sim.lost_bits;
    tr_availability = availability;
    tr_pair_samples = counted;
    tr_recoveries = recoveries;
    tr_sleep_ratio = sleep_ratio_of ~links r.Netsim.Sim.samples;
    tr_mean_power_percent = r.Netsim.Sim.mean_power_percent;
    tr_wake_count = r.Netsim.Sim.wake_count;
    tr_sleep_count = r.Netsim.Sim.sleep_count;
    tr_rejected_wakes = r.Netsim.Sim.rejected_wake_count;
    tr_fallback_routes = r.Netsim.Sim.fallback_count;
  }

let run ?(config = Netsim.Sim.default_config) ?(threshold = 0.999) ?(jobs = 1) ~tables
    ~power ~base ~spec ~trials () =
  if trials <= 0 then invalid_arg "Harness.run: trials must be positive";
  if not (threshold > 0.0 && threshold <= 1.0) then
    invalid_arg "Harness.run: threshold must be in (0, 1]";
  let g = Response.Tables.graph tables in
  let pairs =
    List.sort Eutil.Order.int_pair (Response.Tables.pairs tables)
  in
  let links = Topo.Graph.link_count g in
  (* Trial [k] lands at index [k] whichever domain ran it, so every
     aggregate below folds in the same order for any [jobs]. *)
  let trials =
    Eutil.Pool.init ~jobs trials
      (run_trial ~config ~threshold ~tables ~power ~base ~spec ~pairs ~links)
  in
  let sum f = Array.fold_left (fun acc tr -> acc +. f tr) 0.0 trials in
  let sumi f = Array.fold_left (fun acc tr -> acc + f tr) 0 trials in
  let offered = sum (fun tr -> tr.tr_offered_bits) in
  let delivered = sum (fun tr -> tr.tr_delivered_bits) in
  let lost = sum (fun tr -> tr.tr_lost_bits) in
  let counted = sumi (fun tr -> tr.tr_pair_samples) in
  let served =
    sum (fun tr -> tr.tr_availability *. float_of_int tr.tr_pair_samples)
  in
  let per_trial = Array.to_list (Array.map (fun tr -> tr.tr_recoveries) trials) in
  let recoveries = Array.concat per_trial in
  let pct p = if Array.length recoveries = 0 then 0.0 else Eutil.Stats.percentile recoveries p in
  {
    base_seed = trials.(0).tr_seed;
    trials;
    availability =
      (if counted = 0 then 1.0 else served /. float_of_int counted);
    delivered_fraction = (if offered > 0.0 then delivered /. offered else 1.0);
    lost_fraction = (if offered > 0.0 then lost /. offered else 0.0);
    offered_bits = offered;
    delivered_bits = delivered;
    lost_bits = lost;
    conservation_residual_bits =
      Array.fold_left
        (fun acc tr ->
          Float.max acc
            (Float.abs (tr.tr_offered_bits -. (tr.tr_delivered_bits +. tr.tr_lost_bits))))
        0.0 trials;
    outages = Array.length recoveries;
    recovery_p50 = pct 50.0;
    recovery_p99 = pct 99.0;
    recovery_max = pct 100.0;
    sleep_ratio =
      (let n = Array.length trials in
       if n = 0 then 0.0 else sum (fun tr -> tr.tr_sleep_ratio) /. float_of_int n);
    mean_power_percent =
      (let n = Array.length trials in
       if n = 0 then 0.0 else sum (fun tr -> tr.tr_mean_power_percent) /. float_of_int n);
    rejected_wakes = sumi (fun tr -> tr.tr_rejected_wakes);
    fallback_routes = sumi (fun tr -> tr.tr_fallback_routes);
  }

type sweep_entry = {
  sw_link : int;
  sw_partitioned : (int * int) list;
  sw_lost_bits_after : float;
  sw_final_rate : float;
  sw_delivered_fraction : float;
}

let single_link_sweep ?(config = Netsim.Sim.default_config) ~tables ~power ~base ~fail_at
    ~grace ~duration () =
  if not (fail_at >= 0.0 && grace >= 0.0 && duration > fail_at +. grace) then
    invalid_arg "Harness.single_link_sweep: need 0 <= fail_at, fail_at + grace < duration";
  let g = Response.Tables.graph tables in
  let pairs = List.sort Eutil.Order.int_pair (Response.Tables.pairs tables) in
  List.init (Topo.Graph.link_count g) (fun l ->
      let partitioned =
        List.filter
          (fun (o, d) ->
            Routing.Dijkstra.shortest_path g
              ~active:(fun arc -> arc.Topo.Graph.link <> l)
              ~src:o ~dst:d ()
            = None)
          pairs
      in
      let r =
        Netsim.Sim.run ~config ~tables ~power
          ~events:[ Netsim.Sim.Set_demand (0.0, base); Netsim.Sim.Fail_link (fail_at, l) ]
          ~duration ()
      in
      let lost_after =
        Array.fold_left
          (fun acc sm ->
            if sm.Netsim.Sim.time >= fail_at +. grace then
              acc
              +. ((sm.Netsim.Sim.demand_total -. sm.Netsim.Sim.rate_total)
                 *. config.Netsim.Sim.sample_interval)
            else acc)
          0.0 r.Netsim.Sim.samples
      in
      let final_rate =
        match Array.length r.Netsim.Sim.samples with
        | 0 -> 0.0
        | n -> r.Netsim.Sim.samples.(n - 1).Netsim.Sim.rate_total
      in
      {
        sw_link = l;
        sw_partitioned = partitioned;
        sw_lost_bits_after = lost_after;
        sw_final_rate = final_rate;
        sw_delivered_fraction = r.Netsim.Sim.delivered_fraction;
      })

(* ------------------------------- JSON ------------------------------- *)

let f6 v = Printf.sprintf "%.6f" v

let trial_json tr =
  Printf.sprintf
    "{\"seed\":%d,\"offered_bits\":%s,\"delivered_bits\":%s,\"lost_bits\":%s,\"availability\":%s,\"pair_samples\":%d,\"outages\":%d,\"recovery_max_s\":%s,\"sleep_ratio\":%s,\"mean_power_percent\":%s,\"wake_count\":%d,\"sleep_count\":%d,\"rejected_wakes\":%d,\"fallback_routes\":%d}"
    tr.tr_seed (f6 tr.tr_offered_bits) (f6 tr.tr_delivered_bits) (f6 tr.tr_lost_bits)
    (f6 tr.tr_availability) tr.tr_pair_samples
    (Array.length tr.tr_recoveries)
    (f6
       (Array.fold_left Float.max 0.0 tr.tr_recoveries))
    (f6 tr.tr_sleep_ratio) (f6 tr.tr_mean_power_percent) tr.tr_wake_count tr.tr_sleep_count
    tr.tr_rejected_wakes tr.tr_fallback_routes

let to_json r =
  let per_trial_json = Array.to_list (Array.map trial_json r.trials) in
  let doc =
    Printf.sprintf
      "{\"seed\":%d,\"trials\":%d,\"availability\":%s,\"delivered_fraction\":%s,\"lost_fraction\":%s,\"offered_bits\":%s,\"delivered_bits\":%s,\"lost_bits\":%s,\"conservation_residual_bits\":%s,\"outages\":%d,\"recovery_p50_s\":%s,\"recovery_p99_s\":%s,\"recovery_max_s\":%s,\"sleep_ratio\":%s,\"mean_power_percent\":%s,\"rejected_wakes\":%d,\"fallback_routes\":%d,\"per_trial\":[%s]}"
      r.base_seed (Array.length r.trials) (f6 r.availability) (f6 r.delivered_fraction)
      (f6 r.lost_fraction) (f6 r.offered_bits) (f6 r.delivered_bits) (f6 r.lost_bits)
      (f6 r.conservation_residual_bits) r.outages (f6 r.recovery_p50) (f6 r.recovery_p99)
      (f6 r.recovery_max) (f6 r.sleep_ratio) (f6 r.mean_power_percent) r.rejected_wakes
      r.fallback_routes
      (String.concat "," per_trial_json)
  in
  (* Every emission passes the same validator that gates the Obs exporters;
     a malformed summary is a bug, not a caller problem. *)
  (match Obs.Export.validate_json doc with
  | Ok () -> ()
  | Error e -> invalid_arg ("Harness.to_json: generated invalid JSON: " ^ e));
  doc
