type config = {
  te : Response.Te.config;
  wake_time : float;
  failure_detection : float;
  idle_timeout : float;
  sample_interval : float;
  te_start : float;
  transition_energy : float;
}

let default_config =
  {
    te = Response.Te.default_config;
    wake_time = 0.01;
    failure_detection = 0.1;
    idle_timeout = 0.5;
    sample_interval = 0.1;
    te_start = 0.0;
    transition_energy = 0.0;
  }

type event =
  | Set_demand of float * Traffic.Matrix.t
  | Fail_link of float * int
  | Repair_link of float * int

type sample = {
  time : float;
  power_watts : float;
  power_percent : float;
  demand_total : float;
  rate_total : float;
  pair_rates : ((int * int) * float) list;
  link_rates : float array;
  links_active : int;
}

type result = {
  samples : sample array;
  mean_power_percent : float;
  delivered_fraction : float;
  wake_count : int;
  sleep_count : int;
  energy_joules : float;
  rejected_wake_count : int;
  fallback_count : int;
  offered_bits : float;
  delivered_bits : float;
  lost_bits : float;
}

type link_status = Active | Sleeping | Waking of float

type ev =
  | Probe of int  (* a pair, by its index in the ledger *)
  | Demand_change of Traffic.Matrix.t
  | Fail of int
  | Detect of int
  | Repair of int
  | Wake_done of int
  | Take_sample

(* Event-loop children are resolved once at module init so the hot loop pays
   one gated counter add per event, not a label lookup. *)
let m_events =
  Obs.Metric.Family.counter ~help:"Simulator events processed by type"
    ~label_names:[ "type" ] "netsim_events_total"

let ev_probe = Obs.Metric.Family.labels m_events [ "probe" ]
let ev_demand = Obs.Metric.Family.labels m_events [ "demand_change" ]
let ev_fail = Obs.Metric.Family.labels m_events [ "fail" ]
let ev_detect = Obs.Metric.Family.labels m_events [ "detect" ]
let ev_repair = Obs.Metric.Family.labels m_events [ "repair" ]
let ev_wake_done = Obs.Metric.Family.labels m_events [ "wake_done" ]
let ev_sample = Obs.Metric.Family.labels m_events [ "sample" ]

let m_sleep_transitions =
  Obs.Metric.Counter.create ~help:"Link transitions into the sleeping state"
    "netsim_sleep_transitions_total"

let m_wake_transitions =
  Obs.Metric.Counter.create ~help:"Link transitions out of the sleeping state"
    "netsim_wake_transitions_total"

let m_power_watts =
  Obs.Metric.Gauge.create ~help:"Network power at the last sample" "netsim_power_watts"

let m_links_active =
  Obs.Metric.Gauge.create ~help:"Active links at the last sample" "netsim_links_active"

let m_stale_detects =
  Obs.Metric.Counter.create
    ~help:"Detect events that fired after the link had already been repaired"
    "netsim_stale_detects_total"

let m_rejected_wakes =
  Obs.Metric.Counter.create ~help:"Wake requests refused because the link is failed"
    "netsim_rejected_wakes_total"

let m_fallback_routes =
  Obs.Metric.Counter.create
    ~help:"Dynamic shortest-usable-path fallback routes computed for degraded pairs"
    "netsim_fallback_routes_total"

let m_rate_passes =
  Obs.Metric.Counter.create ~help:"Rate-ledger passes (rate computations over a stale cache)"
    "netsim_rate_passes_total"

let m_rate_redecided =
  Obs.Metric.Counter.create ~help:"Pairs whose placement a rate-ledger pass re-decided"
    "netsim_rate_pairs_redecided_total"

(* One share of a pair's demand and the path carrying it; None while the
   share is unserved. *)
type placement = { volume : float; target : Topo.Path.t option }

(* The rate ledger. Pair k is the k-th of [Tables.pairs], which is also the
   (origin, destination) order in which [Traffic.Matrix.iter_flows] visits
   flows. The first six fields are built once per run; the rest cache
   each pair's last decision, re-made only when the pair is dirty or on
   the dynamic-fallback branch. *)
type ledger = {
  pairs : (int * int) array;
  index : (int * int, int) Hashtbl.t;  (* inverse of [pairs] *)
  paths : Topo.Path.t array array;  (* installed paths, activation order *)
  path_links : int array array array;  (* per pair, per path *)
  capacity : float array;  (* per arc *)
  by_link : int list array;  (* pairs whose installed paths cross the link, ascending *)
  dem : float array;  (* demand of the pairs in [flows] *)
  mutable flows : int array;  (* pairs carrying demand, ascending *)
  dirty : bool array;
  fallback_branch : bool array;  (* all-zero split: re-decided on every pass *)
  placed : placement array array;  (* in split order, then any fallback route *)
  wakes : int list array;  (* sleeping links the pair's shares ask to wake *)
  sums : float array;  (* achieved rate per pair *)
  achieved : float array;  (* per-arc scratch of a pass *)
  wanted : bool array;  (* per-link scratch of a pass *)
}

type sim = {
  g : Topo.Graph.t;
  te : Response.Te.t;
  cfg : config;
  status : link_status array;
  failed : bool array;
  known_failed : bool array;
  last_loaded : float array;  (* per link: last time it carried traffic *)
  mutable demand : Traffic.Matrix.t;
  mutable now : float;
  queue : ev Eutil.Heap.t;
  ledger : ledger;
  (* Rate cache: false once any input of a pass changed. *)
  mutable cache_valid : bool;
  arc_offered : float array;
  link_achieved : float array;
  mutable wakes_wanted : int list;  (* links data-plane traffic needs woken *)
  mutable wake_count : int;
  mutable sleep_count : int;
  mutable rejected_wakes : int;
  mutable fallback_count : int;
  (* Pairs granted Use_fallback by TE; the path is (re)computed lazily in
     [decide] and None while the pair is partitioned. *)
  fallbacks : (int * int, Topo.Path.t option) Hashtbl.t;
  invcap : Topo.Graph.arc -> float;  (* OSPF weight, hoisted once per run *)
}

let ledger_of tables =
  let g = Response.Tables.graph tables in
  let entries = Array.of_list (Response.Tables.entries tables) in
  let n = Array.length entries in
  let paths = Array.map Response.Tables.paths entries in
  let path_links = Array.map (fun ps -> Array.map (Topo.Path.links g) ps) paths in
  let by_link = Array.make (Topo.Graph.link_count g) [] in
  for k = n - 1 downto 0 do
    Array.iter
      (Array.iter (fun l ->
           match by_link.(l) with k' :: _ when k' = k -> () | ks -> by_link.(l) <- k :: ks))
      path_links.(k)
  done;
  let pairs = Array.map (fun e -> (e.Response.Tables.origin, e.Response.Tables.dest)) entries in
  let index = Hashtbl.create n in
  Array.iteri (fun k od -> Hashtbl.replace index od k) pairs;
  {
    pairs;
    index;
    paths;
    path_links;
    capacity =
      Array.init (Topo.Graph.arc_count g) (fun a -> (Topo.Graph.arc g a).Topo.Graph.capacity);
    by_link;
    dem = Array.make n 0.0;
    flows = [||];
    dirty = Array.make n true;
    fallback_branch = Array.make n false;
    placed = Array.make n [||];
    wakes = Array.make n [];
    sums = Array.make n 0.0;
    achieved = Array.make (Topo.Graph.arc_count g) 0.0;
    wanted = Array.make (Topo.Graph.link_count g) false;
  }

(* Dirty marks. Any mark also makes the next [compute_rates] run a pass;
   [invalidate] alone schedules a pass that re-decides only the pairs on
   the dynamic-fallback branch. *)
let invalidate s = s.cache_valid <- false

let touch_pair s k =
  s.ledger.dirty.(k) <- true;
  invalidate s

(* [failed] or [status] of the link changed. *)
let touch_link s l =
  List.iter (fun k -> s.ledger.dirty.(k) <- true) s.ledger.by_link.(l);
  invalidate s

let set_demand s tm =
  let lg = s.ledger in
  let flows = ref [] in
  Traffic.Matrix.iter_flows tm ~f:(fun o d dem ->
      match Hashtbl.find_opt lg.index (o, d) with
      | Some k ->
          lg.dem.(k) <- dem;
          flows := k :: !flows
      | None -> ());
  s.demand <- tm;
  lg.flows <- Array.of_list (List.rev !flows);
  Array.fill lg.dirty 0 (Array.length lg.dirty) true;
  invalidate s

let carrying s l =
  (not s.failed.(l)) && match s.status.(l) with Active -> true | Sleeping | Waking _ -> false

let asleep s l =
  (not s.failed.(l)) && match s.status.(l) with Sleeping -> true | Active | Waking _ -> false

let link_fully_active s links = Array.for_all (carrying s) links

(* Shortest path avoiding every link the control plane knows is failed —
   the last rung of the degradation ladder (sleeping links are fine: they
   wake on demand). *)
let ospf_usable_path s o d =
  Routing.Dijkstra.shortest_path s.g ~weight:s.invcap
    ~active:(fun arc -> not s.known_failed.(arc.Topo.Graph.link))
    ~src:o ~dst:d ()

(* Re-decides pair [k]'s placements and wake requests from its demand,
   split and link states. A share whose path is not fully active falls
   back to the pair's lowest fully-active path; with no active path at all
   it is unserved and asks for its own path to wake. *)
let decide s k =
  let lg = s.ledger in
  let o, d = lg.pairs.(k) in
  let dem = lg.dem.(k) and paths = lg.paths.(k) and links = lg.path_links.(k) in
  let split = Response.Te.split s.te o d in
  let placed = ref [] and wakes = ref [] in
  let place volume target = placed := { volume; target } :: !placed in
  let ask_wake links = Array.iter (fun l -> if asleep s l then wakes := l :: !wakes) links in
  let rec lowest_active i =
    if i >= Array.length paths then None
    else if link_fully_active s links.(i) then Some paths.(i)
    else lowest_active (i + 1)
  in
  let fallback = lowest_active 0 in
  Array.iteri
    (fun i share ->
      if share > 0.0 then
        if link_fully_active s links.(i) then place (dem *. share) (Some paths.(i))
        else begin
          ask_wake links.(i);
          place (dem *. share) fallback
        end)
    split;
  (* A pair whose split is all-zero has lost every installed path (the TE
     panic ladder zeroed it). If TE escalated to Use_fallback, route over
     the dynamic shortest usable path; either way the demand is recorded so
     unserved volume shows up as measured loss, never silently vanishing. *)
  let zero = Array.for_all (fun share -> share <= 0.0) split in
  if zero then begin
    let stale p = Array.exists (fun l -> s.known_failed.(l)) (Topo.Path.links s.g p) in
    let fb =
      match Hashtbl.find_opt s.fallbacks (o, d) with
      | None -> None (* not granted: panic retries still running *)
      | Some (Some p) when not (stale p) -> Some p
      | Some _ ->
          let p = ospf_usable_path s o d in
          if p <> None then begin
            s.fallback_count <- s.fallback_count + 1;
            Obs.Metric.Counter.incr m_fallback_routes
          end;
          Hashtbl.replace s.fallbacks (o, d) p;
          p
    in
    match fb with
    | Some p when link_fully_active s (Topo.Path.links s.g p) -> place dem (Some p)
    | Some p ->
        ask_wake (Topo.Path.links s.g p);
        place dem None
    | None -> place dem None
  end;
  lg.fallback_branch.(k) <- zero;
  lg.placed.(k) <- Array.of_list (List.rev !placed);
  lg.wakes.(k) <- !wakes

let fmax (a : float) b = if a >= b then a else b

(* Folds every cached placement into the per-arc offered and achieved
   loads, the per-pair sums and the per-link rates, in the order of a
   from-scratch rebuild so every float is bit-identical to one: offered
   loads forward in (pair, share) order, achieved rates and pair sums in
   reverse. *)
let refold s =
  let lg = s.ledger in
  let offered = s.arc_offered and achieved = lg.achieved in
  Array.fill offered 0 (Array.length offered) 0.0;
  Array.iter
    (fun k ->
      Array.iter
        (fun { volume; target } ->
          match target with
          | Some p -> Array.iter (fun a -> offered.(a) <- offered.(a) +. volume) p.Topo.Path.arcs
          | None -> ())
        lg.placed.(k))
    lg.flows;
  (* Achieved rate: demand scaled by the worst oversubscription en route. *)
  Array.fill achieved 0 (Array.length achieved) 0.0;
  for i = Array.length lg.flows - 1 downto 0 do
    let k = lg.flows.(i) in
    let placed = lg.placed.(k) in
    let sum = ref 0.0 in
    for j = Array.length placed - 1 downto 0 do
      match placed.(j).target with
      | None -> sum := 0.0 +. !sum (* an unserved share, summed as the rebuild did *)
      | Some p ->
          let arcs = p.Topo.Path.arcs in
          let worst = ref 1.0 in
          for x = 0 to Array.length arcs - 1 do
            worst := fmax !worst (offered.(arcs.(x)) /. lg.capacity.(arcs.(x)))
          done;
          let r = placed.(j).volume /. !worst in
          for x = 0 to Array.length arcs - 1 do
            achieved.(arcs.(x)) <- achieved.(arcs.(x)) +. r
          done;
          sum := r +. !sum
    done;
    lg.sums.(k) <- !sum
  done;
  for l = 0 to Array.length s.link_achieved - 1 do
    let a1, a2 = Topo.Graph.arcs_of_link s.g l in
    let r = fmax achieved.(a1) achieved.(a2) in
    s.link_achieved.(l) <- r;
    if r > 0.0 then s.last_loaded.(l) <- s.now
  done;
  Array.iter (fun k -> List.iter (fun l -> lg.wanted.(l) <- true) lg.wakes.(k)) lg.flows;
  let wanted = ref [] in
  for l = Array.length lg.wanted - 1 downto 0 do
    if lg.wanted.(l) then begin
      lg.wanted.(l) <- false;
      wanted := l :: !wanted
    end
  done;
  s.wakes_wanted <- !wanted

(* Offered loads, achieved rates and data-plane wake requests for the
   current demand, splits and link states: re-decides the dirty pairs and
   those on the dynamic-fallback branch, then re-folds the ledger. *)
let compute_rates s =
  if not s.cache_valid then begin
    let lg = s.ledger in
    let redecided = ref 0 in
    Array.iter
      (fun k ->
        if lg.dirty.(k) || lg.fallback_branch.(k) then begin
          decide s k;
          lg.dirty.(k) <- false;
          incr redecided
        end)
      lg.flows;
    if Obs.enabled () then begin
      Obs.Metric.Counter.incr m_rate_passes;
      Obs.Metric.Counter.add_int m_rate_redecided !redecided
    end;
    refold s;
    s.cache_valid <- true
  end

(* Achieved rate per flow pair, in (origin, destination) order, as of the
   last pass. *)
let pair_rates s =
  let lg = s.ledger in
  Array.fold_right
    (fun k acc ->
      if Array.length lg.placed.(k) = 0 then acc else (lg.pairs.(k), lg.sums.(k)) :: acc)
    lg.flows []

let wake_link s l =
  if asleep s l then begin
    s.status.(l) <- Waking (s.now +. s.cfg.wake_time);
    s.wake_count <- s.wake_count + 1;
    Obs.Metric.Counter.incr m_wake_transitions;
    Eutil.Heap.push s.queue (s.now +. s.cfg.wake_time) (Wake_done l);
    touch_link s l
  end

(* Pairs whose current split crosses the link: the agents that must react
   promptly to news about it, in [Tables.pairs] order (their immediate
   probes share a timestamp, and the event heap breaks ties by push
   order). *)
let pairs_using_link s l =
  let lg = s.ledger in
  List.filter
    (fun k ->
      let o, d = lg.pairs.(k) in
      let split = Response.Te.split s.te o d in
      let links = lg.path_links.(k) in
      let rec crosses i =
        i < Array.length links && ((split.(i) > 0.0 && Array.mem l links.(i)) || crosses (i + 1))
      in
      crosses 0)
    lg.by_link.(l)

(* A control-plane wake request. The network refuses to wake a failed link;
   the refusal is surfaced as a counter and doubles as an immediate failure
   signal — the affected agents re-evaluate now rather than waiting out the
   detection delay or a full probe period. *)
let request_wake s l =
  if s.failed.(l) then begin
    s.rejected_wakes <- s.rejected_wakes + 1;
    Obs.Metric.Counter.incr m_rejected_wakes;
    if not s.known_failed.(l) then begin
      s.known_failed.(l) <- true;
      List.iter (fun k -> Eutil.Heap.push s.queue s.now (Probe k)) (pairs_using_link s l);
      invalidate s
    end
  end
  else wake_link s l

let power_state s =
  let st = Topo.State.all_off s.g in
  Array.iteri
    (fun l status ->
      let on = (not s.failed.(l)) && (match status with Active | Waking _ -> true | Sleeping -> false) in
      if on then Topo.State.set_link s.g st l true)
    s.status;
  st

(* Put long-idle active links to sleep. *)
let housekeeping s =
  compute_rates s;
  (* The rate cache may be old; a link loaded under the cached rates is
     loaded *now*, so refresh its timestamp before the idle check. *)
  Array.iteri (fun l r -> if r > 0.0 then s.last_loaded.(l) <- s.now) s.link_achieved;
  Array.iteri
    (fun l status ->
      if status = Active && (not s.failed.(l)) && s.now -. s.last_loaded.(l) > s.cfg.idle_timeout
      then begin
        s.status.(l) <- Sleeping;
        s.sleep_count <- s.sleep_count + 1;
        Obs.Metric.Counter.incr m_sleep_transitions;
        touch_link s l
      end)
    s.status

let link_util s l =
  let a1, a2 = Topo.Graph.arcs_of_link s.g l in
  let capacity = s.ledger.capacity in
  fmax (s.arc_offered.(a1) /. capacity.(a1)) (s.arc_offered.(a2) /. capacity.(a2))

let handle_probe s k =
  if s.now >= s.cfg.te_start then begin
    compute_rates s;
    (* Data-plane wake requests piggyback on the probe round. *)
    List.iter (fun l -> wake_link s l) s.wakes_wanted;
    let o, d = s.ledger.pairs.(k) in
    let actions =
      Response.Te.on_probe s.te ~origin:o ~dest:d ~now:s.now ~link_util:(link_util s)
        ~link_usable:(fun l -> not s.known_failed.(l))
    in
    List.iter
      (fun action ->
        match action with
        | Response.Te.Wake links -> List.iter (fun l -> request_wake s l) links
        | Response.Te.Set_split _ -> touch_pair s k
        | Response.Te.Use_fallback ->
            Hashtbl.replace s.fallbacks (o, d) None;
            touch_pair s k
        | Response.Te.Cancel_fallback ->
            Hashtbl.remove s.fallbacks (o, d);
            touch_pair s k)
      actions
  end

let take_sample s power =
  compute_rates s;
  housekeeping s;
  compute_rates s;
  let st = power_state s in
  let pair_rates = pair_rates s in
  let rate_total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 pair_rates in
  let watts = Eutil.Units.to_float (Power.Model.total power s.g st) in
  Obs.Metric.Gauge.set m_power_watts watts;
  Obs.Metric.Gauge.set_int m_links_active (Topo.State.active_links st);
  {
    time = s.now;
    power_watts = watts;
    power_percent = Power.Model.percent_of_full power s.g st;
    demand_total = Traffic.Matrix.total s.demand;
    rate_total;
    pair_rates;
    link_rates = Array.copy s.link_achieved;
    links_active = Topo.State.active_links st;
  }

let run ?(config = default_config) ?(initial_splits = []) ~tables ~power ~events ~duration () =
  let g = Response.Tables.graph tables in
  let te = Response.Te.create tables config.te in
  let s =
    {
      g;
      te;
      cfg = config;
      status = Array.make (Topo.Graph.link_count g) Sleeping;
      failed = Array.make (Topo.Graph.link_count g) false;
      known_failed = Array.make (Topo.Graph.link_count g) false;
      last_loaded = Array.make (Topo.Graph.link_count g) 0.0;
      demand = Traffic.Matrix.create (Topo.Graph.node_count g);
      now = 0.0;
      queue = Eutil.Heap.create ();
      ledger = ledger_of tables;
      cache_valid = false;
      arc_offered = Array.make (Topo.Graph.arc_count g) 0.0;
      link_achieved = Array.make (Topo.Graph.link_count g) 0.0;
      wakes_wanted = [];
      wake_count = 0;
      sleep_count = 0;
      rejected_wakes = 0;
      fallback_count = 0;
      fallbacks = Hashtbl.create 16;
      invcap = Routing.Spf.invcap g;
    }
  in
  (* Seed non-default splits (e.g. the pre-TE state of Figure 7). *)
  let seeded = Hashtbl.create 16 in
  List.iter
    (fun (((o, d) as od), split) ->
      if Hashtbl.mem seeded od then invalid_arg "Sim.run: repeated pair in initial_splits";
      Hashtbl.replace seeded od split;
      Response.Te.force_split te o d split)
    initial_splits;
  (* Initially the links used by current splits are active. *)
  Array.iteri
    (fun k (o, d) ->
      let split =
        match Hashtbl.find_opt seeded (o, d) with
        | Some split -> split
        | None -> Response.Te.split te o d
      in
      Array.iteri
        (fun i share ->
          if share > 0.0 then
            Array.iter (fun l -> s.status.(l) <- Active) s.ledger.path_links.(k).(i))
        split)
    s.ledger.pairs;
  (* Schedule scenario events. *)
  List.iter
    (fun ev ->
      match ev with
      | Set_demand (t, tm) -> Eutil.Heap.push s.queue t (Demand_change tm)
      | Fail_link (t, l) -> Eutil.Heap.push s.queue t (Fail l)
      | Repair_link (t, l) -> Eutil.Heap.push s.queue t (Repair l))
    events;
  (* Probes: per pair, staggered within the first period. *)
  let t_probe = Eutil.Units.to_float config.te.Response.Te.probe_period in
  let n_pairs = Array.length s.ledger.pairs in
  for k = 0 to n_pairs - 1 do
    let offset = t_probe *. float_of_int k /. float_of_int (max 1 n_pairs) in
    Eutil.Heap.push s.queue (config.te_start +. offset) (Probe k)
  done;
  (* Samples. *)
  let n_samples = int_of_float (duration /. config.sample_interval) + 1 in
  for i = 0 to n_samples - 1 do
    Eutil.Heap.push s.queue (float_of_int i *. config.sample_interval) Take_sample
  done;
  let samples = ref [] in
  let rec loop () =
    match Eutil.Heap.pop s.queue with
    | None -> ()
    | Some (t, _) when t > duration +. 1e-9 -> ()
    | Some (t, ev) ->
        s.now <- max s.now t;
        (match ev with
        | Probe k ->
            Obs.Metric.Counter.incr ev_probe;
            handle_probe s k;
            Eutil.Heap.push s.queue (s.now +. t_probe) (Probe k)
        | Demand_change tm ->
            Obs.Metric.Counter.incr ev_demand;
            set_demand s tm
        | Fail l ->
            Obs.Metric.Counter.incr ev_fail;
            s.failed.(l) <- true;
            Eutil.Heap.push s.queue (s.now +. config.failure_detection) (Detect l);
            touch_link s l
        | Detect l ->
            Obs.Metric.Counter.incr ev_detect;
            (* Guard against the stale-detection race: a Detect scheduled by
               a failure that was repaired inside the detection window must
               not mark the healthy link failed. *)
            if not s.failed.(l) then Obs.Metric.Counter.incr m_stale_detects
            else begin
              s.known_failed.(l) <- true;
              (* Affected agents react promptly: immediate probe for pairs
                 whose current split crosses the failed link. *)
              List.iter (fun k -> Eutil.Heap.push s.queue s.now (Probe k)) (pairs_using_link s l)
            end
        | Repair l ->
            Obs.Metric.Counter.incr ev_repair;
            s.failed.(l) <- false;
            s.known_failed.(l) <- false;
            if s.status.(l) <> Sleeping then begin
              s.sleep_count <- s.sleep_count + 1;
              Obs.Metric.Counter.incr m_sleep_transitions
            end;
            s.status.(l) <- Sleeping;
            touch_link s l
        | Wake_done l ->
            Obs.Metric.Counter.incr ev_wake_done;
            (match s.status.(l) with
            | Waking ready when ready <= s.now +. 1e-9 ->
                s.status.(l) <- Active;
                touch_link s l
            | _ -> ())
        | Take_sample ->
            Obs.Metric.Counter.incr ev_sample;
            samples := take_sample s power :: !samples);
        loop ()
  in
  loop ();
  let samples = Array.of_list (List.rev !samples) in
  let mean_power_percent =
    if Array.length samples = 0 then 0.0
    else
      Array.fold_left (fun acc sm -> acc +. sm.power_percent) 0.0 samples
      /. float_of_int (Array.length samples)
  in
  let demanded = Array.fold_left (fun acc sm -> acc +. sm.demand_total) 0.0 samples in
  let delivered = Array.fold_left (fun acc sm -> acc +. sm.rate_total) 0.0 samples in
  let delivered_fraction = if demanded > 0.0 then delivered /. demanded else 1.0 in
  let energy_joules =
    Array.fold_left
      (fun acc sm -> acc +. (sm.power_watts *. config.sample_interval))
      (float_of_int s.wake_count *. config.transition_energy)
      samples
  in
  (* Explicit traffic-conservation accounting: the achieved rate never
     exceeds demand (worst oversubscription factor >= 1), so lost is
     non-negative and delivered + lost = offered holds exactly. *)
  let offered_bits = demanded *. config.sample_interval in
  let delivered_bits = delivered *. config.sample_interval in
  let lost_bits = offered_bits -. delivered_bits in
  {
    samples;
    mean_power_percent;
    delivered_fraction;
    wake_count = s.wake_count;
    sleep_count = s.sleep_count;
    energy_joules;
    rejected_wake_count = s.rejected_wakes;
    fallback_count = s.fallback_count;
    offered_bits;
    delivered_bits;
    lost_bits;
  }
