type process = { mtbf : float; mttr : float }

type flap = {
  flap_link : int option;
  flap_period : float;
  flap_cycles : int;
  flap_start : float;
}

type surge = { surge_at : float; surge_factor : float; surge_duration : float }

type spec = {
  seed : int;
  duration : float;
  warmup : float;
  link_faults : process option;
  node_faults : process option;
  srlgs : int list list;
  srlg_faults : process option;
  flapping : flap option;
  surges : surge list;
}

let default =
  {
    seed = 0;
    duration = 10.0;
    warmup = 0.0;
    link_faults = Some { mtbf = 3.0; mttr = 0.5 };
    node_faults = None;
    srlgs = [];
    srlg_faults = None;
    flapping = None;
    surges = [];
  }

let validate spec =
  if not (spec.duration > 0.0) then invalid_arg "Scenario: duration must be positive";
  if spec.warmup < 0.0 || spec.warmup >= spec.duration then
    invalid_arg "Scenario: warmup must lie in [0, duration)";
  let check_process what = function
    | None -> ()
    | Some p ->
        if not (p.mtbf > 0.0 && p.mttr > 0.0) then
          invalid_arg (Printf.sprintf "Scenario: %s mtbf/mttr must be positive" what)
  in
  check_process "link" spec.link_faults;
  check_process "node" spec.node_faults;
  check_process "srlg" spec.srlg_faults;
  (match spec.flapping with
  | Some f when not (f.flap_period > 0.0) ->
      invalid_arg "Scenario: flap period must be positive"
  | _ -> ());
  List.iter
    (fun s ->
      if not (s.surge_factor >= 0.0) || not (s.surge_duration > 0.0) then
        invalid_arg "Scenario: surge factor must be >= 0 and duration positive")
    spec.surges

(* Alternating up/down renewal process: calls [f start stop] for every down
   interval beginning before the horizon. *)
let draw_process rng ~mtbf ~mttr ~from ~until ~f =
  let t = ref (from +. Eutil.Prng.exponential rng ~mean:mtbf) in
  while !t < until do
    let repair = !t +. Eutil.Prng.exponential rng ~mean:mttr in
    f !t repair;
    t := repair +. Eutil.Prng.exponential rng ~mean:mtbf
  done

let incident_links g n =
  Topo.Graph.out_arcs g n
  |> Array.to_list
  |> List.map (fun a -> (Topo.Graph.arc g a).Topo.Graph.link)
  |> List.sort_uniq Int.compare

(* Merge a link's down intervals into maximal disjoint ones so the emitted
   schedule never double-fails a link or revives one a concurrent fault
   still holds down. *)
let merge_intervals intervals =
  let sorted =
    List.sort (Eutil.Order.pair Float.compare Float.compare) intervals
  in
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | (s0, e0) :: acc' when fst iv <= e0 ->
            go ((s0, Float.max e0 (snd iv)) :: acc') rest
        | _ -> go (iv :: acc) rest)
  in
  go [] sorted

let events spec g ~base =
  validate spec;
  let root = Eutil.Prng.create spec.seed in
  (* Fixed split order = per-process stream independence. *)
  let link_rng = Eutil.Prng.split root in
  let node_rng = Eutil.Prng.split root in
  let srlg_rng = Eutil.Prng.split root in
  let flap_rng = Eutil.Prng.split root in
  let downs = Array.make (Topo.Graph.link_count g) [] in
  let add_down l t0 t1 = downs.(l) <- (t0, t1) :: downs.(l) in
  (match spec.link_faults with
  | None -> ()
  | Some p ->
      for l = 0 to Topo.Graph.link_count g - 1 do
        let rng = Eutil.Prng.split link_rng in
        draw_process rng ~mtbf:p.mtbf ~mttr:p.mttr ~from:spec.warmup ~until:spec.duration
          ~f:(fun t0 t1 -> add_down l t0 t1)
      done);
  (match spec.node_faults with
  | None -> ()
  | Some p ->
      for n = 0 to Topo.Graph.node_count g - 1 do
        let rng = Eutil.Prng.split node_rng in
        if Topo.Graph.degree g n > 0 then
          draw_process rng ~mtbf:p.mtbf ~mttr:p.mttr ~from:spec.warmup ~until:spec.duration
            ~f:(fun t0 t1 -> List.iter (fun l -> add_down l t0 t1) (incident_links g n))
      done);
  (match (spec.srlg_faults, spec.srlgs) with
  | None, _ | _, [] -> ()
  | Some p, groups ->
      List.iter
        (fun group ->
          let rng = Eutil.Prng.split srlg_rng in
          draw_process rng ~mtbf:p.mtbf ~mttr:p.mttr ~from:spec.warmup ~until:spec.duration
            ~f:(fun t0 t1 -> List.iter (fun l -> add_down l t0 t1) group))
        groups);
  (match spec.flapping with
  | None -> ()
  | Some f ->
      let l =
        match f.flap_link with
        | Some l -> l
        | None -> Eutil.Prng.int flap_rng (Topo.Graph.link_count g)
      in
      for i = 0 to f.flap_cycles - 1 do
        let t0 = f.flap_start +. (float_of_int i *. f.flap_period) in
        if t0 < spec.duration then add_down l t0 (t0 +. (f.flap_period /. 2.0))
      done);
  let fault_events = ref [] in
  Array.iteri
    (fun l intervals ->
      List.iter
        (fun (t0, t1) ->
          fault_events := Netsim.Sim.Fail_link (t0, l) :: !fault_events;
          if t1 < spec.duration then
            fault_events := Netsim.Sim.Repair_link (t1, l) :: !fault_events)
        (merge_intervals intervals))
    downs;
  let demand_events =
    Netsim.Sim.Set_demand (0.0, base)
    :: List.concat_map
         (fun s ->
           [
             Netsim.Sim.Set_demand (s.surge_at, Traffic.Matrix.scale base s.surge_factor);
             Netsim.Sim.Set_demand (s.surge_at +. s.surge_duration, base);
           ])
         spec.surges
  in
  (* Canonical order: time, then demand changes, repairs, failures (a
     coincident fail wins over a repair), then link id. *)
  let key = function
    | Netsim.Sim.Set_demand (t, _) -> (t, 0, -1)
    | Netsim.Sim.Repair_link (t, l) -> (t, 1, l)
    | Netsim.Sim.Fail_link (t, l) -> (t, 2, l)
  in
  let all_events = List.rev_append (List.rev demand_events) !fault_events in
  List.sort
    (Eutil.Order.by key (Eutil.Order.triple Float.compare Int.compare Int.compare))
    all_events

let random_srlgs g rng ~groups ~size =
  if groups <= 0 || size <= 0 then
    invalid_arg "Scenario.random_srlgs: groups and size must be positive";
  let n = Topo.Graph.link_count g in
  let want = min (groups * size) n in
  let picks = Eutil.Prng.sample rng want n in
  List.init groups (fun gi ->
      let lo = gi * size in
      if lo >= want then []
      else
        Array.to_list (Array.sub picks lo (min size (want - lo))) |> List.sort Int.compare)
  |> List.filter (fun grp -> grp <> [])
