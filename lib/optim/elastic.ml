module G = Topo.Graph
module U = Eutil.Units

(* Pod index of a host node, from the fat-tree layout. *)
let pod_tables ft =
  let g = ft.Topo.Fattree.graph in
  let k = ft.Topo.Fattree.k in
  let half = k / 2 in
  let pod_of = Array.make (G.node_count g) (-1) in
  Array.iteri (fun i h -> pod_of.(h) <- i / (half * half)) ft.Topo.Fattree.hosts;
  Array.iteri (fun i e -> pod_of.(e) <- i / half) ft.Topo.Fattree.edges;
  Array.iteri (fun i a -> pod_of.(a) <- i / half) ft.Topo.Fattree.aggs;
  pod_of

(* Per-pod demand totals: cross-pod egress/ingress and intra-pod inter-edge
   volume (traffic between hosts of the same pod under different edge
   switches still needs an aggregation switch). A flow from or to a node
   with no pod (a core switch) is rejected here, before any routing. *)
let pod_demands ft tm =
  let g = ft.Topo.Fattree.graph in
  let k = ft.Topo.Fattree.k in
  let half = k / 2 in
  let pod_of = pod_tables ft in
  let edge_index = Array.make (G.node_count g) (-1) in
  Array.iteri (fun i h -> edge_index.(h) <- i / half) ft.Topo.Fattree.hosts;
  let cross_out = Array.make k 0.0 in
  let cross_in = Array.make k 0.0 in
  let intra = Array.make k 0.0 in
  Traffic.Matrix.iter_flows tm ~f:(fun o d v ->
      let po = pod_of.(o) and pd = pod_of.(d) in
      if po < 0 || pd < 0 then
        invalid_arg
          (Printf.sprintf
             "Elastic.minimal_subset: flow endpoint %s is not a host, edge or aggregation switch"
             (G.name g (if po < 0 then o else d)));
      if po <> pd then begin
        cross_out.(po) <- cross_out.(po) +. v;
        cross_in.(pd) <- cross_in.(pd) +. v
      end
      else if edge_index.(o) <> edge_index.(d) then intra.(po) <- intra.(po) +. v);
  (cross_out, cross_in, intra)

let build_state ft ~aggs_per_pod ~cores =
  let g = ft.Topo.Fattree.graph in
  let k = ft.Topo.Fattree.k in
  let half = k / 2 in
  let st = Topo.State.all_off g in
  let link_on i j =
    match G.find_arc g i j with
    | Some a -> Topo.State.set_link g st (G.arc g a).G.link true
    | None ->
        invalid_arg
          (Printf.sprintf "Elastic.minimal_subset: the fat-tree has no link %s-%s" (G.name g i)
             (G.name g j))
  in
  (* All host-edge links stay on: edge switches cannot sleep. *)
  Array.iteri
    (fun i h ->
      let e = ft.Topo.Fattree.edges.(i / half) in
      link_on h e)
    ft.Topo.Fattree.hosts;
  (* Edge to the first [aggs_per_pod] aggregation switches of its pod. *)
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to aggs_per_pod - 1 do
        link_on ft.Topo.Fattree.edges.((pod * half) + e) ft.Topo.Fattree.aggs.((pod * half) + a)
      done
    done
  done;
  (* Active cores: [cores] of them, chosen round-robin over the groups of the
     active aggregation switches so that every active core is reachable. *)
  let m = max 1 aggs_per_pod in
  for i = 0 to cores - 1 do
    let group = i mod m in
    let idx = i / m in
    if idx < half then begin
      let core = ft.Topo.Fattree.cores.((group * half) + idx) in
      for pod = 0 to k - 1 do
        link_on ft.Topo.Fattree.aggs.((pod * half) + group) core
      done
    end
  done;
  st

let minimal_subset ?margin ft power tm =
  let margin = match margin with Some m -> m | None -> U.ratio 1.0 in
  let g = ft.Topo.Fattree.graph in
  let k = ft.Topo.Fattree.k in
  if k < 2 || k mod 2 <> 0 then
    invalid_arg (Printf.sprintf "Elastic.minimal_subset: fat-tree k must be even and >= 2, got %d" k);
  let half = k / 2 in
  let cap = U.to_float (U.( *: ) margin (U.bps (G.link_capacity g 0))) in
  if not (cap > 0.0) then
    invalid_arg "Elastic.minimal_subset: fat-tree link capacity (times margin) must be positive";
  let cross_out, cross_in, intra = pod_demands ft tm in
  let needs_agg = Array.exists (fun v -> v > 0.0) intra in
  let max_cross =
    Array.fold_left max 0.0 (Array.append cross_out cross_in)
  in
  let total_cross = Array.fold_left ( +. ) 0.0 cross_out in
  (* Aggregation switches per pod: enough uplink bandwidth for the pod's
     cross traffic ((k/2) core uplinks each). *)
  let demand_aggs = int_of_float (ceil (max_cross /. (float_of_int half *. cap))) in
  let base_aggs =
    if max_cross > 0.0 || needs_agg then max 1 demand_aggs else 0
  in
  (* Core switches: each handles up to [cap] per pod; bounded below by the
     per-pod bottleneck and by the aggregate core load. *)
  let base_cores =
    if max_cross > 0.0 then
      max
        (int_of_float (ceil (max_cross /. cap)))
        (int_of_float (ceil (total_cross /. (float_of_int k *. cap))))
    else 0
  in
  let rec search aggs cores =
    if aggs > half then None
    else begin
      let cores = max cores (if max_cross > 0.0 then 1 else 0) in
      if cores > aggs * half then search (aggs + 1) base_cores
      else begin
        let st = build_state ft ~aggs_per_pod:aggs ~cores in
        match Minimal.evaluate ~margin g power tm st with
        | Some r -> Some r
        | None ->
            (* Escalate: more cores first, then more aggregation switches. *)
            if cores < aggs * half then search aggs (cores + 1)
            else search (aggs + 1) base_cores
      end
    end
  in
  search (max base_aggs (if needs_agg then 1 else 0)) base_cores
