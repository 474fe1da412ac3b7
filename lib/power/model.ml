module U = Eutil.Units

type t = {
  description : string;
  chassis : int -> U.watts U.q;
  port : Topo.Graph.arc -> U.watts U.q;
  amplifier : int -> U.watts U.q;
}

(* One preset table of line-card power by interface rate (Cisco 12000:
   OC192 / OC48 / OC12, with OC3 as the floor), shared by every hardware
   profile that bills per port. Thresholds are typed capacities, so a
   watts/bps mix-up in the table is a compile error. *)
let linecard_presets =
  [|
    ("OC192", U.gbps 9.0, U.watts 174.0);
    ("OC48", U.gbps 2.0, U.watts 140.0);
    ("OC12", U.mbps 500.0, U.watts 80.0);
  |]

let oc3_watts = U.watts 60.0

let linecard_watts capacity =
  let n = Array.length linecard_presets in
  let rec pick i =
    if i >= n then oc3_watts
    else begin
      let _, threshold, w = linecard_presets.(i) in
      if U.compare_q capacity threshold >= 0 then w else pick (i + 1)
    end
  in
  pick 0

(* 1.2 W optical repeater every 80 km; distance from propagation latency at
   ~200 km/ms in fibre. *)
let amplifier_watts g l =
  let km = Topo.Graph.link_latency g l *. 200_000.0 in
  U.watts (1.2 *. floor (km /. 80.0))

let cisco_chassis = U.watts 600.0

let cisco12000 g =
  {
    description = "Cisco 12000-series (chassis 600 W, linecards 60-174 W)";
    chassis =
      (fun i -> if Topo.Graph.role g i = Topo.Graph.Host then U.zero else cisco_chassis);
    port =
      (fun arc ->
        if Topo.Graph.role g arc.Topo.Graph.src = Topo.Graph.Host then U.zero
        else linecard_watts (U.bps arc.Topo.Graph.capacity));
    amplifier = (fun l -> amplifier_watts g l);
  }

let alternative_hw g =
  let base = cisco12000 g in
  {
    base with
    description = "alternative hardware (always-on chassis budget / 10)";
    chassis = (fun i -> U.scale 0.1 (base.chassis i));
  }

let commodity_dc ?peak g =
  let peak = match peak with Some p -> p | None -> U.watts 150.0 in
  {
    description = "commodity datacenter switch (90% fixed overhead)";
    chassis =
      (fun i -> if Topo.Graph.role g i = Topo.Graph.Host then U.zero else U.scale 0.9 peak);
    port =
      (fun arc ->
        let src = arc.Topo.Graph.src in
        if Topo.Graph.role g src = Topo.Graph.Host then U.zero
        else begin
          let ports = max 1 (Topo.Graph.degree g src) in
          U.scale (0.1 /. float_of_int ports) peak
        end);
    amplifier = (fun _ -> U.zero);
  }

let link_power m g l =
  let a1, a2 = Topo.Graph.arcs_of_link g l in
  U.( +: )
    (U.( +: ) (m.port (Topo.Graph.arc g a1)) (m.port (Topo.Graph.arc g a2)))
    (m.amplifier l)

let node_power m _g i = m.chassis i

let total m g st =
  let nodes =
    Topo.Graph.fold_nodes g ~init:U.zero ~f:(fun acc i ->
        if Topo.State.node_on st i then U.( +: ) acc (m.chassis i) else acc)
  in
  Topo.Graph.fold_links g ~init:nodes ~f:(fun acc l ->
      if Topo.State.link_on st l then U.( +: ) acc (link_power m g l) else acc)

let full m g = total m g (Topo.State.all_on g)

let m_nodes_awake =
  Obs.Metric.Gauge.create ~help:"Nodes awake in the last evaluated state"
    "power_nodes_awake"

let m_links_awake =
  Obs.Metric.Gauge.create ~help:"Links awake in the last evaluated state"
    "power_links_awake"

let m_links_asleep =
  Obs.Metric.Gauge.create ~help:"Links asleep in the last evaluated state"
    "power_links_asleep"

type figures = { total : U.watts U.q; full : U.watts U.q; percent : float }

(* [total] and [full] summed side by side, both in [total]'s order: nodes,
   then links, by identifier. A node is on in the all-on state exactly when
   it has a link. [U.( +: )] is [+.], and the sums live in local float refs,
   which stay unboxed. *)
let figures m g st =
  if Obs.Control.enabled () then begin
    Obs.Metric.Gauge.set_int m_nodes_awake (Topo.State.active_nodes st);
    let awake = Topo.State.active_links st in
    Obs.Metric.Gauge.set_int m_links_awake awake;
    Obs.Metric.Gauge.set_int m_links_asleep (Topo.Graph.link_count g - awake)
  end;
  let on_sum = ref 0.0 and all_sum = ref 0.0 in
  for i = 0 to Topo.Graph.node_count g - 1 do
    if Topo.Graph.degree g i > 0 then begin
      let w = U.to_float (m.chassis i) in
      all_sum := !all_sum +. w;
      if Topo.State.node_on st i then on_sum := !on_sum +. w
    end
  done;
  for l = 0 to Topo.Graph.link_count g - 1 do
    let w = U.to_float (link_power m g l) in
    all_sum := !all_sum +. w;
    if Topo.State.link_on st l then on_sum := !on_sum +. w
  done;
  let total = U.watts !on_sum and full = U.watts !all_sum in
  let percent = match U.div_opt total full with None -> 0.0 | Some r -> U.percent r in
  { total; full; percent }

let percent_of_full m g st = (figures m g st).percent

let state_of_loads g load =
  let st = Topo.State.all_off g in
  Topo.Graph.iter_links g ~f:(fun l -> if load l > 0.0 then Topo.State.set_link g st l true);
  st
