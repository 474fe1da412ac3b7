(* The simulator's original rate computation, frozen as the test oracle
   for [Netsim.Sim]: every [compute_rates] rebuilds every pair's placement
   from scratch. It is the pre-ledger [lib/netsim/sim.ml] with its Obs
   instruments removed (a second registration of the [netsim_*] metric
   names would fail at start-up) and with the public types taken from
   [Netsim.Sim], so the two [run]s return comparable results. Its event
   queue is the frozen [Heap_reference], not [Eutil.Heap], and its agents
   the frozen [Te_reference], not [Response.Te], so the oracle is frozen
   end to end. Do not optimise it: its only job is to be obviously the old
   behaviour. *)

open Netsim.Sim

type link_status = Active | Sleeping | Waking of float

type ev =
  | Probe of int * int
  | Demand_change of Traffic.Matrix.t
  | Fail of int
  | Detect of int
  | Repair of int
  | Wake_done of int
  | Take_sample

type sim = {
  g : Topo.Graph.t;
  tables : Response.Tables.t;
  te : Te_reference.t;
  cfg : config;
  status : link_status array;
  failed : bool array;
  known_failed : bool array;
  last_loaded : float array;  (* per link: last time it carried traffic *)
  mutable demand : Traffic.Matrix.t;
  mutable now : float;
  queue : ev Heap_reference.t;
  (* Rate cache, invalidated on any state change. *)
  mutable cache_valid : bool;
  mutable arc_offered : float array;
  mutable pair_rates : ((int * int) * float) list;
  mutable link_achieved : float array;
  mutable wakes_wanted : int list;  (* links data-plane traffic needs woken *)
  mutable wake_count : int;
  mutable sleep_count : int;
  mutable rejected_wakes : int;
  mutable fallback_count : int;
  (* Pairs granted Use_fallback by TE; the path is (re)computed lazily in
     [compute_rates] and None while the pair is partitioned. *)
  fallbacks : (int * int, Topo.Path.t option) Hashtbl.t;
  invcap : Topo.Graph.arc -> float;  (* OSPF weight, hoisted once per run *)
}

let link_fully_active s p =
  Array.for_all
    (fun l -> (not s.failed.(l)) && s.status.(l) = Active)
    (Topo.Path.links s.g p)

(* Shortest path avoiding every link the control plane knows is failed —
   the last rung of the degradation ladder (sleeping links are fine: they
   wake on demand). *)
let ospf_usable_path s o d =
  Routing.Dijkstra.shortest_path s.g ~weight:s.invcap
    ~active:(fun arc -> not s.known_failed.(arc.Topo.Graph.link))
    ~src:o ~dst:d ()

(* Offered loads, achieved rates and data-plane wake requests for the current
   demand, splits and link states. A share whose path is not fully active
   falls back to the pair's lowest fully-active path; with no active path at
   all it is unserved and asks for its own path to wake. *)
let compute_rates s =
  if not s.cache_valid then begin
    let n_arcs = Topo.Graph.arc_count s.g in
    let offered = Array.make n_arcs 0.0 in
    let placements = ref [] in
    let wakes = ref [] in
    Traffic.Matrix.iter_flows s.demand ~f:(fun o d dem ->
        match Response.Tables.find s.tables o d with
        | None -> ()
        | Some e ->
            let paths = Response.Tables.paths e in
            let split = Te_reference.split s.te o d in
            let fallback = ref None in
            Array.iteri
              (fun i p -> if !fallback = None && link_fully_active s p then fallback := Some i)
              paths;
            Array.iteri
              (fun i share ->
                if share > 0.0 then begin
                  let volume = dem *. share in
                  let target =
                    if link_fully_active s paths.(i) then Some paths.(i)
                    else begin
                      (* Ask the network to wake this path's sleeping links. *)
                      Array.iter
                        (fun l ->
                          if (not s.failed.(l)) && s.status.(l) = Sleeping then
                            wakes := l :: !wakes)
                        (Topo.Path.links s.g paths.(i));
                      Option.map (fun j -> paths.(j)) !fallback
                    end
                  in
                  match target with
                  | Some p ->
                      Array.iter (fun a -> offered.(a) <- offered.(a) +. volume) p.Topo.Path.arcs;
                      placements := ((o, d), volume, Some p) :: !placements
                  | None -> placements := ((o, d), volume, None) :: !placements
                end)
              split;
            (* A pair whose split is all-zero has lost every installed path
               (the TE panic ladder zeroed it). If TE escalated to
               Use_fallback, route over the dynamic shortest usable path;
               either way the demand is recorded so unserved volume shows up
               as measured loss, never silently vanishing. *)
            if Array.for_all (fun share -> share <= 0.0) split then begin
              let stale p =
                Array.exists (fun l -> s.known_failed.(l)) (Topo.Path.links s.g p)
              in
              let fb =
                match Hashtbl.find_opt s.fallbacks (o, d) with
                | None -> None (* not granted: panic retries still running *)
                | Some (Some p) when not (stale p) -> Some p
                | Some _ ->
                    let p = ospf_usable_path s o d in
                    if p <> None then s.fallback_count <- s.fallback_count + 1;
                    Hashtbl.replace s.fallbacks (o, d) p;
                    p
              in
              match fb with
              | Some p when link_fully_active s p ->
                  Array.iter (fun a -> offered.(a) <- offered.(a) +. dem) p.Topo.Path.arcs;
                  placements := ((o, d), dem, Some p) :: !placements
              | Some p ->
                  Array.iter
                    (fun l ->
                      if (not s.failed.(l)) && s.status.(l) = Sleeping then wakes := l :: !wakes)
                    (Topo.Path.links s.g p);
                  placements := ((o, d), dem, None) :: !placements
              | None -> placements := ((o, d), dem, None) :: !placements
            end);
    (* Achieved rate: demand scaled by the worst oversubscription en route. *)
    let factor a = offered.(a) /. (Topo.Graph.arc s.g a).Topo.Graph.capacity in
    let achieved = Array.make n_arcs 0.0 in
    let by_pair = Hashtbl.create 64 in
    List.iter
      (fun (od, volume, target) ->
        let rate =
          match target with
          | None -> 0.0
          | Some p ->
              let worst =
                Array.fold_left (fun acc a -> max acc (factor a)) 1.0 p.Topo.Path.arcs
              in
              let r = volume /. worst in
              Array.iter (fun a -> achieved.(a) <- achieved.(a) +. r) p.Topo.Path.arcs;
              r
        in
        Hashtbl.replace by_pair od (rate +. Option.value (Hashtbl.find_opt by_pair od) ~default:0.0))
      !placements;
    let link_achieved =
      Array.init (Topo.Graph.link_count s.g) (fun l ->
          let a1, a2 = Topo.Graph.arcs_of_link s.g l in
          max achieved.(a1) achieved.(a2))
    in
    Array.iteri (fun l r -> if r > 0.0 then s.last_loaded.(l) <- s.now) link_achieved;
    s.arc_offered <- offered;
    s.pair_rates <-
      Hashtbl.fold (fun od r acc -> (od, r) :: acc) by_pair []
      |> List.sort (Eutil.Order.pair Eutil.Order.int_pair Float.compare);
    s.link_achieved <- link_achieved;
    s.wakes_wanted <- List.sort_uniq Int.compare !wakes;
    s.cache_valid <- true
  end

let invalidate s = s.cache_valid <- false

let wake_link s l =
  if (not s.failed.(l)) && s.status.(l) = Sleeping then begin
    s.status.(l) <- Waking (s.now +. s.cfg.wake_time);
    s.wake_count <- s.wake_count + 1;
    Heap_reference.push s.queue (s.now +. s.cfg.wake_time) (Wake_done l);
    invalidate s
  end

(* Pairs whose current split crosses the link: the agents that must react
   promptly to news about it. *)
let pairs_using_link s l =
  List.filter
    (fun (o, d) ->
      match Response.Tables.find s.tables o d with
      | None -> false
      | Some e ->
          let paths = Response.Tables.paths e in
          let split = Te_reference.split s.te o d in
          Array.exists
            (fun i -> split.(i) > 0.0 && Topo.Path.uses_link s.g paths.(i) l)
            (Array.init (Array.length paths) (fun i -> i)))
    (Response.Tables.pairs s.tables)

(* A control-plane wake request. The network refuses to wake a failed link;
   the refusal is surfaced as a counter and doubles as an immediate failure
   signal — the affected agents re-evaluate now rather than waiting out the
   detection delay or a full probe period. *)
let request_wake s l =
  if s.failed.(l) then begin
    s.rejected_wakes <- s.rejected_wakes + 1;
    if not s.known_failed.(l) then begin
      s.known_failed.(l) <- true;
      List.iter
        (fun (o, d) -> Heap_reference.push s.queue s.now (Probe (o, d)))
        (pairs_using_link s l);
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
        invalidate s
      end)
    s.status

let link_util s l =
  let a1, a2 = Topo.Graph.arcs_of_link s.g l in
  let cap a = (Topo.Graph.arc s.g a).Topo.Graph.capacity in
  max (s.arc_offered.(a1) /. cap a1) (s.arc_offered.(a2) /. cap a2)

let handle_probe s o d =
  if s.now >= s.cfg.te_start then begin
    compute_rates s;
    (* Data-plane wake requests piggyback on the probe round. *)
    List.iter (fun l -> wake_link s l) s.wakes_wanted;
    let actions =
      Te_reference.on_probe s.te ~origin:o ~dest:d ~now:s.now ~link_util:(link_util s)
        ~link_usable:(fun l -> not s.known_failed.(l))
    in
    List.iter
      (fun action ->
        match action with
        | Te_reference.Wake links -> List.iter (fun l -> request_wake s l) links
        | Te_reference.Set_split _ -> invalidate s
        | Te_reference.Use_fallback ->
            Hashtbl.replace s.fallbacks (o, d) None;
            invalidate s
        | Te_reference.Cancel_fallback ->
            Hashtbl.remove s.fallbacks (o, d);
            invalidate s)
      actions
  end

let take_sample s power =
  compute_rates s;
  housekeeping s;
  compute_rates s;
  let st = power_state s in
  let rate_total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 s.pair_rates in
  let watts = Eutil.Units.to_float (Power.Model.total power s.g st) in
  {
    time = s.now;
    power_watts = watts;
    power_percent = Power.Model.percent_of_full power s.g st;
    demand_total = Traffic.Matrix.total s.demand;
    rate_total;
    pair_rates = s.pair_rates;
    link_rates = Array.copy s.link_achieved;
    links_active = Topo.State.active_links st;
  }

let run ?(config = default_config) ?initial_splits ~tables ~power ~events ~duration () =
  let g = Response.Tables.graph tables in
  let te = Te_reference.create tables config.te in
  let s =
    {
      g;
      tables;
      te;
      cfg = config;
      status = Array.make (Topo.Graph.link_count g) Sleeping;
      failed = Array.make (Topo.Graph.link_count g) false;
      known_failed = Array.make (Topo.Graph.link_count g) false;
      last_loaded = Array.make (Topo.Graph.link_count g) 0.0;
      demand = Traffic.Matrix.create (Topo.Graph.node_count g);
      now = 0.0;
      queue = Heap_reference.create ();
      cache_valid = false;
      arc_offered = [||];
      pair_rates = [];
      link_achieved = [||];
      wakes_wanted = [];
      wake_count = 0;
      sleep_count = 0;
      rejected_wakes = 0;
      fallback_count = 0;
      fallbacks = Hashtbl.create 16;
      invcap = Routing.Spf.invcap g;
    }
  in
  (* Initially the links used by current splits are active. *)
  let pairs = Response.Tables.pairs tables in
  let seeded_splits = Hashtbl.create 16 in
  (match initial_splits with
  | None -> ()
  | Some l ->
      List.iter
        (fun (od, sp) -> if not (Hashtbl.mem seeded_splits od) then Hashtbl.add seeded_splits od sp)
        l);
  List.iter
    (fun (o, d) ->
      match Response.Tables.find tables o d with
      | None -> ()
      | Some e ->
          let paths = Response.Tables.paths e in
          let split =
            match Hashtbl.find_opt seeded_splits (o, d) with
            | Some sp -> sp
            | None -> Te_reference.split te o d
          in
          Array.iteri
            (fun i share ->
              if share > 0.0 && i < Array.length paths then
                Array.iter (fun l -> s.status.(l) <- Active) (Topo.Path.links g paths.(i)))
            split)
    pairs;
  (* Seed non-default splits (e.g. the pre-TE state of Figure 7). *)
  (match initial_splits with
  | None -> ()
  | Some l -> List.iter (fun ((o, d), split) -> Te_reference.force_split te o d split) l);
  (* Schedule scenario events. *)
  List.iter
    (fun ev ->
      match ev with
      | Set_demand (t, tm) -> Heap_reference.push s.queue t (Demand_change tm)
      | Fail_link (t, l) -> Heap_reference.push s.queue t (Fail l)
      | Repair_link (t, l) -> Heap_reference.push s.queue t (Repair l))
    events;
  (* Probes: per pair, staggered within the first period. *)
  let t_probe = Eutil.Units.to_float config.te.Response.Te.probe_period in
  List.iteri
    (fun i (o, d) ->
      let offset = t_probe *. float_of_int i /. float_of_int (max 1 (List.length pairs)) in
      Heap_reference.push s.queue (config.te_start +. offset) (Probe (o, d)))
    pairs;
  (* Samples. *)
  let n_samples = int_of_float (duration /. config.sample_interval) + 1 in
  for i = 0 to n_samples - 1 do
    Heap_reference.push s.queue (float_of_int i *. config.sample_interval) Take_sample
  done;
  let samples = ref [] in
  let rec loop () =
    match Heap_reference.pop s.queue with
    | None -> ()
    | Some (t, _) when t > duration +. 1e-9 -> ()
    | Some (t, ev) ->
        s.now <- max s.now t;
        (match ev with
        | Probe (o, d) ->
            handle_probe s o d;
            Heap_reference.push s.queue (s.now +. t_probe) (Probe (o, d))
        | Demand_change tm ->
            s.demand <- tm;
            invalidate s
        | Fail l ->
            s.failed.(l) <- true;
            Heap_reference.push s.queue (s.now +. config.failure_detection) (Detect l);
            invalidate s
        | Detect l ->
            (* Guard against the stale-detection race: a Detect scheduled by
               a failure that was repaired inside the detection window must
               not mark the healthy link failed. *)
            if s.failed.(l) then begin
              s.known_failed.(l) <- true;
              (* Affected agents react promptly: immediate probe for pairs
                 whose current split crosses the failed link. *)
              List.iter
                (fun (o, d) -> Heap_reference.push s.queue s.now (Probe (o, d)))
                (pairs_using_link s l)
            end
        | Repair l ->
            s.failed.(l) <- false;
            s.known_failed.(l) <- false;
            if s.status.(l) <> Sleeping then s.sleep_count <- s.sleep_count + 1;
            s.status.(l) <- Sleeping;
            invalidate s
        | Wake_done l ->
            (match s.status.(l) with
            | Waking ready when ready <= s.now +. 1e-9 ->
                s.status.(l) <- Active;
                invalidate s
            | _ -> ())
        | Take_sample ->
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
