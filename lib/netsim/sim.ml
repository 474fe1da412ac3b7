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

(* The rate ledger. Pair k is the k-th of [Tables.pairs], which is also the
   (origin, destination) order in which [Traffic.Matrix.iter_flows] visits
   flows. The fields up to [probes] are built once per run; the rest hold
   each pair's demand, fallback grant and last decision, re-made only when
   the pair is marked or holds a granted fallback. A pair is marked once
   between passes: the first mark sets [dirty] and pushes it on [marked].

   A pair's placements are its shares of demand in split order, then any
   fallback route, each a volume and the path carrying it (None while the
   share is unserved). They live in preallocated slots, one per installed
   path and one for the fallback route. A target is one of the [routes]
   built once per run or the granted fallback route, so an unchanged
   target is the same value. [moved] is set when a decision writes a slot
   with other volume bits or another target or changes a pair's slot
   count, and by a demand change. While it is clear, the per-arc and
   per-pair sums of the last fold still hold. *)
type ledger = {
  pairs : (int * int) array;
  index : (int * int, int) Hashtbl.t;  (* inverse of [pairs] *)
  te_pairs : Response.Te.pair array;  (* the pairs' TE handles *)
  routes : Topo.Path.t option array array;  (* [Some p] per installed path, activation order *)
  path_links : int array array array;  (* per pair, per path *)
  capacity : float array;  (* per arc *)
  link_arc1 : int array;  (* per link, the arcs of [Topo.Graph.arcs_of_link] *)
  link_arc2 : int array;
  by_link : int list array;  (* pairs whose installed paths cross the link, ascending *)
  probes : ev array;  (* [Probe k], built once per pair *)
  dem : float array;  (* demand of the pairs in [flows], 0 for the others *)
  mutable flows : int array;  (* pairs carrying demand, ascending *)
  dirty : bool array;  (* marked since the last pass *)
  marked : int array;  (* the marked pairs, a stack [n_marked] deep *)
  mutable n_marked : int;
  on_fallback : bool array;  (* all-zero split and a granted fallback: re-decided on every pass *)
  mutable n_on_fallback : int;  (* pairs whose [on_fallback] is set *)
  (* TE granted Use_fallback; the route is (re)computed lazily in [decide]
     and None while the pair is partitioned. *)
  granted : bool array;
  fallback : Topo.Path.t option array;
  fallback_links : int array array;  (* links of the [fallback] route *)
  first_slot : int array;  (* pair k's slots start at [first_slot.(k)] *)
  volume : float array;  (* placement slots, all pairs' *)
  target : Topo.Path.t option array;
  placed : int array;  (* slots in use, per pair *)
  mutable moved : bool;
  wakes : int list array;  (* sleeping links the pair's shares ask to wake *)
  mutable n_waking : int;  (* pairs whose [wakes] is not empty *)
  sums : float array;  (* achieved rate per pair *)
  arc_util : float array;  (* per-arc scratch of a fold: offered load, then that over capacity *)
  achieved : float array;  (* per-arc scratch of a fold *)
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
  link_util : float array;  (* per link, the larger of its arcs' [arc_util] as of the last fold *)
  link_achieved : float array;
  mutable wakes_wanted : int list;  (* links data-plane traffic needs woken *)
  mutable wake_count : int;
  mutable sleep_count : int;
  mutable rejected_wakes : int;
  mutable fallback_count : int;
  invcap : Topo.Graph.arc -> float;  (* OSPF weight, hoisted once per run *)
}

let ledger_of tables te =
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
  let link_arcs = Array.init (Topo.Graph.link_count g) (Topo.Graph.arcs_of_link g) in
  let first_slot = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    first_slot.(k + 1) <- first_slot.(k) + Array.length paths.(k) + 1
  done;
  {
    pairs;
    index;
    te_pairs = Array.map (fun (o, d) -> Response.Te.pair te o d) pairs;
    routes = Array.map (Array.map Option.some) paths;
    path_links;
    capacity =
      Array.init (Topo.Graph.arc_count g) (fun a -> (Topo.Graph.arc g a).Topo.Graph.capacity);
    link_arc1 = Array.map fst link_arcs;
    link_arc2 = Array.map snd link_arcs;
    by_link;
    probes = Array.init n (fun k -> Probe k);
    dem = Array.make n 0.0;
    flows = [||];
    dirty = Array.make n false;
    marked = Array.make n 0;
    n_marked = 0;
    on_fallback = Array.make n false;
    n_on_fallback = 0;
    granted = Array.make n false;
    fallback = Array.make n None;
    fallback_links = Array.make n [||];
    first_slot;
    volume = Array.make first_slot.(n) 0.0;
    target = Array.make first_slot.(n) None;
    placed = Array.make n 0;
    moved = true;
    wakes = Array.make n [];
    n_waking = 0;
    sums = Array.make n 0.0;
    arc_util = Array.make (Topo.Graph.arc_count g) 0.0;
    achieved = Array.make (Topo.Graph.arc_count g) 0.0;
    wanted = Array.make (Topo.Graph.link_count g) false;
  }

(* Dirty marks. Any mark also makes the next [compute_rates] run a pass;
   [invalidate] alone schedules a pass that re-decides only the pairs on
   the dynamic-fallback branch. No pair starts marked: until the first
   demand change, which marks every pair, no pair carries demand. *)
let invalidate s = s.cache_valid <- false

let mark lg k =
  if not lg.dirty.(k) then begin
    lg.dirty.(k) <- true;
    lg.marked.(lg.n_marked) <- k;
    lg.n_marked <- lg.n_marked + 1
  end

let rec mark_all lg = function
  | [] -> ()
  | k :: rest ->
      mark lg k;
      mark_all lg rest

let touch_pair s k =
  mark s.ledger k;
  invalidate s

(* [failed] or [status] of the link changed. *)
let touch_link s l =
  mark_all s.ledger s.ledger.by_link.(l);
  invalidate s

let set_demand s tm =
  let lg = s.ledger in
  Array.iter (fun k -> lg.dem.(k) <- 0.0) lg.flows;
  let flows = ref [] in
  Traffic.Matrix.iter_flows tm ~f:(fun o d dem ->
      match Hashtbl.find_opt lg.index (o, d) with
      | Some k ->
          lg.dem.(k) <- dem;
          flows := k :: !flows
      | None -> ());
  s.demand <- tm;
  lg.flows <- Array.of_list (List.rev !flows);
  for k = 0 to Array.length lg.dirty - 1 do
    mark lg k
  done;
  lg.moved <- true;
  invalidate s

let carrying s l =
  (not s.failed.(l)) && match s.status.(l) with Active -> true | Sleeping | Waking _ -> false

let asleep s l =
  (not s.failed.(l)) && match s.status.(l) with Sleeping -> true | Active | Waking _ -> false

let link_fully_active s links = Array.for_all (carrying s) links

(* [acc] with the sleeping links among [links] from [x] on pushed in
   order. *)
let rec ask_wake s links x acc =
  if x >= Array.length links then acc
  else ask_wake s links (x + 1) (if asleep s links.(x) then links.(x) :: acc else acc)

(* The route of pair [k]'s lowest fully-active path at or above [i]. *)
let rec lowest_active s k i =
  let lg = s.ledger in
  if i >= Array.length lg.routes.(k) then None
  else if link_fully_active s lg.path_links.(k).(i) then lg.routes.(k).(i)
  else lowest_active s k (i + 1)

(* Shortest path avoiding every link the control plane knows is failed —
   the last rung of the degradation ladder (sleeping links are fine: they
   wake on demand). *)
let ospf_usable_path s o d =
  Routing.Dijkstra.shortest_path s.g ~weight:s.invcap
    ~active:(fun arc -> not s.known_failed.(arc.Topo.Graph.link))
    ~src:o ~dst:d ()

(* Writes placement slot [j] of pair [k], raising [moved] if it changes. *)
let[@inline] place lg k j volume target =
  let slot = lg.first_slot.(k) + j in
  if
    (not (Int64.equal (Int64.bits_of_float lg.volume.(slot)) (Int64.bits_of_float volume)))
    || lg.target.(slot) != target
  then begin
    lg.volume.(slot) <- volume;
    lg.target.(slot) <- target;
    lg.moved <- true
  end

let rec all_zero split i = i >= Array.length split || (split.(i) <= 0.0 && all_zero split (i + 1))

(* The granted fallback route of pair [k], recomputed when it is unset or
   crosses a link the control plane knows is failed. *)
let fallback_route s k =
  let lg = s.ledger in
  match lg.fallback.(k) with
  | Some _ as route when not (Array.exists (fun l -> s.known_failed.(l)) lg.fallback_links.(k)) ->
      route
  | Some _ | None ->
      let o, d = lg.pairs.(k) in
      let route = ospf_usable_path s o d in
      (match route with
      | Some p ->
          s.fallback_count <- s.fallback_count + 1;
          Obs.Metric.Counter.incr m_fallback_routes;
          lg.fallback_links.(k) <- Topo.Path.links s.g p
      | None -> lg.fallback_links.(k) <- [||]);
      lg.fallback.(k) <- route;
      route

(* Re-decides pair [k]'s placements and wake requests from its demand,
   split and link states. A share whose path is not fully active falls
   back to the pair's lowest fully-active path; with no active path at all
   it is unserved and asks for its own path to wake. *)
let decide s k =
  let lg = s.ledger in
  let dem = lg.dem.(k) and links = lg.path_links.(k) and routes = lg.routes.(k) in
  let split = Response.Te.shares lg.te_pairs.(k) in
  let fallback = lowest_active s k 0 in
  let wakes = ref [] and j = ref 0 in
  for i = 0 to Array.length split - 1 do
    let share = split.(i) in
    if share > 0.0 then begin
      if link_fully_active s links.(i) then place lg k !j (dem *. share) routes.(i)
      else begin
        wakes := ask_wake s links.(i) 0 !wakes;
        place lg k !j (dem *. share) fallback
      end;
      incr j
    end
  done;
  (* A pair whose split is all-zero has lost every installed path (the TE
     panic ladder zeroed it). If TE escalated to Use_fallback, route over
     the dynamic shortest usable path; either way the demand is recorded so
     unserved volume shows up as measured loss, never silently vanishing.
     Without a grant the decision reads no link state. *)
  let zero = all_zero split 0 in
  if zero then begin
    let target =
      if not lg.granted.(k) then None
      else
        match fallback_route s k with
        | Some _ as route when link_fully_active s lg.fallback_links.(k) -> route
        | Some _ ->
            wakes := ask_wake s lg.fallback_links.(k) 0 !wakes;
            None
        | None -> None
    in
    place lg k !j dem target;
    incr j
  end;
  let on_fallback = zero && lg.granted.(k) in
  if on_fallback <> lg.on_fallback.(k) then begin
    lg.on_fallback.(k) <- on_fallback;
    lg.n_on_fallback <- (lg.n_on_fallback + if on_fallback then 1 else -1)
  end;
  if lg.placed.(k) <> !j then begin
    lg.placed.(k) <- !j;
    lg.moved <- true
  end;
  (match (lg.wakes.(k), !wakes) with
  | [], _ :: _ -> lg.n_waking <- lg.n_waking + 1
  | _ :: _, [] -> lg.n_waking <- lg.n_waking - 1
  | [], [] | _ :: _, _ :: _ -> ());
  lg.wakes.(k) <- !wakes

let fmax (a : float) b = if a >= b then a else b

(* Folds every cached placement into the per-arc offered and achieved
   loads, the per-pair sums and the per-link utilisations and rates, in the
   order of a from-scratch rebuild so every float is bit-identical to one:
   offered loads forward in (pair, share) order, achieved rates and pair
   sums in reverse. *)
let refold s =
  let lg = s.ledger in
  let offered = lg.arc_util and achieved = lg.achieved and flows = lg.flows in
  Array.fill offered 0 (Array.length offered) 0.0;
  for i = 0 to Array.length flows - 1 do
    let k = flows.(i) in
    let first = lg.first_slot.(k) in
    for slot = first to first + lg.placed.(k) - 1 do
      match lg.target.(slot) with
      | Some p ->
          let arcs = p.Topo.Path.arcs and v = lg.volume.(slot) in
          for x = 0 to Array.length arcs - 1 do
            offered.(arcs.(x)) <- offered.(arcs.(x)) +. v
          done
      | None -> ()
    done
  done;
  (* Each arc's offered load over its capacity, divided once: the worst
     oversubscription below reads it, and so does TE through [link_util]. *)
  let util = offered in
  for a = 0 to Array.length util - 1 do
    util.(a) <- util.(a) /. lg.capacity.(a)
  done;
  for l = 0 to Array.length s.link_util - 1 do
    s.link_util.(l) <- fmax util.(lg.link_arc1.(l)) util.(lg.link_arc2.(l))
  done;
  (* Achieved rate: demand scaled by the worst oversubscription en route. *)
  Array.fill achieved 0 (Array.length achieved) 0.0;
  for i = Array.length flows - 1 downto 0 do
    let k = flows.(i) in
    let first = lg.first_slot.(k) in
    let sum = ref 0.0 in
    for slot = first + lg.placed.(k) - 1 downto first do
      match lg.target.(slot) with
      | None -> sum := 0.0 +. !sum (* an unserved share, summed as the rebuild did *)
      | Some p ->
          let arcs = p.Topo.Path.arcs in
          let worst = ref 1.0 in
          for x = 0 to Array.length arcs - 1 do
            worst := fmax !worst util.(arcs.(x))
          done;
          let r = lg.volume.(slot) /. !worst in
          for x = 0 to Array.length arcs - 1 do
            achieved.(arcs.(x)) <- achieved.(arcs.(x)) +. r
          done;
          sum := r +. !sum
    done;
    lg.sums.(k) <- !sum
  done;
  for l = 0 to Array.length s.link_achieved - 1 do
    s.link_achieved.(l) <- fmax achieved.(lg.link_arc1.(l)) achieved.(lg.link_arc2.(l))
  done

let rec mark_wanted wanted = function
  | [] -> ()
  | l :: rest ->
      wanted.(l) <- true;
      mark_wanted wanted rest

(* Offered loads, achieved rates and data-plane wake requests for the
   current demand, splits and link states. A pass re-decides the marked
   pairs that carry demand and the flows holding a granted fallback, each
   once, and re-folds the ledger only if a placement moved: the fold reads
   nothing else. The order of the decisions does not matter, as [decide k]
   writes only pair k's own entries, [moved] and sums. *)
let compute_rates s =
  if not s.cache_valid then begin
    let lg = s.ledger and flows = s.ledger.flows in
    let redecided = ref 0 in
    (* A marked pair is left to the stack below. *)
    if lg.n_on_fallback > 0 then
      for i = 0 to Array.length flows - 1 do
        let k = flows.(i) in
        if lg.on_fallback.(k) && not lg.dirty.(k) then begin
          decide s k;
          incr redecided
        end
      done;
    while lg.n_marked > 0 do
      lg.n_marked <- lg.n_marked - 1;
      let k = lg.marked.(lg.n_marked) in
      lg.dirty.(k) <- false;
      if lg.dem.(k) > 0.0 then begin
        decide s k;
        incr redecided
      end
    done;
    if Obs.enabled () then begin
      Obs.Metric.Counter.incr m_rate_passes;
      Obs.Metric.Counter.add_int m_rate_redecided !redecided
    end;
    if lg.moved then begin
      refold s;
      lg.moved <- false
    end;
    for l = 0 to Array.length s.link_achieved - 1 do
      if s.link_achieved.(l) > 0.0 then s.last_loaded.(l) <- s.now
    done;
    if lg.n_waking = 0 then s.wakes_wanted <- []
    else begin
      for i = 0 to Array.length flows - 1 do
        mark_wanted lg.wanted lg.wakes.(flows.(i))
      done;
      let wanted = ref [] in
      for l = Array.length lg.wanted - 1 downto 0 do
        if lg.wanted.(l) then begin
          lg.wanted.(l) <- false;
          wanted := l :: !wanted
        end
      done;
      s.wakes_wanted <- !wanted
    end;
    s.cache_valid <- true
  end

(* Achieved rate per flow pair, in (origin, destination) order, as of the
   last pass. *)
let pair_rates s =
  let lg = s.ledger in
  Array.fold_right
    (fun k acc -> if lg.placed.(k) = 0 then acc else (lg.pairs.(k), lg.sums.(k)) :: acc)
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
      let split = Response.Te.shares lg.te_pairs.(k) in
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
      List.iter (fun k -> Eutil.Heap.push s.queue s.now s.ledger.probes.(k)) (pairs_using_link s l);
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

let rec wake_links s = function
  | [] -> ()
  | l :: rest ->
      wake_link s l;
      wake_links s rest

let rec apply_actions s k = function
  | [] -> ()
  | action :: rest ->
      let lg = s.ledger in
      (match action with
      | Response.Te.Wake links -> List.iter (fun l -> request_wake s l) links
      | Response.Te.Set_split _ -> touch_pair s k
      | Response.Te.Use_fallback ->
          lg.granted.(k) <- true;
          lg.fallback.(k) <- None;
          touch_pair s k
      | Response.Te.Cancel_fallback ->
          lg.granted.(k) <- false;
          lg.fallback.(k) <- None;
          touch_pair s k);
      apply_actions s k rest

(* TE reads the link arrays in place: [link_util] as of the fold the
   rate pass just brought up to date, and [known_failed]. *)
let handle_probe s k =
  if s.now >= s.cfg.te_start then begin
    compute_rates s;
    (* Data-plane wake requests piggyback on the probe round. *)
    wake_links s s.wakes_wanted;
    apply_actions s k
      (Response.Te.probe s.te s.ledger.te_pairs.(k) ~now:s.now ~util:s.link_util
         ~known_failed:s.known_failed)
  end

let take_sample s power =
  compute_rates s;
  housekeeping s;
  compute_rates s;
  let st = power_state s in
  let pair_rates = pair_rates s in
  let rate_total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 pair_rates in
  let figures = Power.Model.figures power s.g st in
  let watts = Eutil.Units.to_float figures.Power.Model.total in
  Obs.Metric.Gauge.set m_power_watts watts;
  Obs.Metric.Gauge.set_int m_links_active (Topo.State.active_links st);
  {
    time = s.now;
    power_watts = watts;
    power_percent = figures.Power.Model.percent;
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
      ledger = ledger_of tables te;
      cache_valid = false;
      link_util = Array.make (Topo.Graph.link_count g) 0.0;
      link_achieved = Array.make (Topo.Graph.link_count g) 0.0;
      wakes_wanted = [];
      wake_count = 0;
      sleep_count = 0;
      rejected_wakes = 0;
      fallback_count = 0;
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
        | None -> Response.Te.shares s.ledger.te_pairs.(k)
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
    Eutil.Heap.push s.queue (config.te_start +. offset) s.ledger.probes.(k)
  done;
  (* Samples. *)
  let n_samples = int_of_float (duration /. config.sample_interval) + 1 in
  for i = 0 to n_samples - 1 do
    Eutil.Heap.push s.queue (float_of_int i *. config.sample_interval) Take_sample
  done;
  let samples = ref [] in
  (* The horizon check peeks at the next priority, so an event costs a
     [take] and no option or tuple. *)
  let rec loop () =
    if not (Eutil.Heap.is_empty s.queue) then begin
      let t = Eutil.Heap.min_priority s.queue in
      if not (t > duration +. 1e-9) then begin
        let ev = Eutil.Heap.take s.queue in
        s.now <- fmax s.now t;
        (match ev with
        | Probe k ->
            Obs.Metric.Counter.incr ev_probe;
            handle_probe s k;
            (* [now] never decreases, so neither does this priority: the
               re-arm always takes the heap's O(1) sorted run. *)
            Eutil.Heap.push_last s.queue (s.now +. t_probe) s.ledger.probes.(k)
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
              List.iter
                (fun k -> Eutil.Heap.push s.queue s.now s.ledger.probes.(k))
                (pairs_using_link s l)
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
      end
    end
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
