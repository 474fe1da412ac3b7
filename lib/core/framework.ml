module U = Eutil.Units

type variant = On_demand.variant =
  | Solver of Traffic.Matrix.t
  | Stress of float
  | Ospf
  | Heuristic of Traffic.Matrix.t

type config = {
  margin : U.ratio U.q;
  n_paths : int;
  latency_beta : float option;
  always_on_mode : Always_on.mode;
  on_demand : variant;
}

let default =
  {
    margin = U.ratio 1.0;
    n_paths = 3;
    latency_beta = None;
    always_on_mode = Always_on.Oblivious;
    on_demand = Stress 0.2;
  }

let m_precomputes =
  Obs.Metric.Counter.create ~help:"Full table precomputations" "core_precomputes_total"

let m_table_entries =
  Obs.Metric.Gauge.create ~help:"Entries in the most recently built table set"
    "core_table_entries"

let m_evaluations =
  Obs.Metric.Counter.create ~help:"Traffic-matrix evaluations against tables"
    "core_evaluations_total"

(* Debug-time validation of freshly installed tables (Check.Invariant). On
   by default so every test exercises it; RESPONSE_CHECKS=0 (or flipping the
   atomic) disables it for production-scale precomputations. An [Atomic.t]
   rather than a [ref] so that flipping it is race-free with respect to a
   concurrently running precompute. *)
let install_checks = Atomic.make (Sys.getenv_opt "RESPONSE_CHECKS" <> Some "0")

let table_findings g ~pairs tables =
  let entries =
    List.map
      (fun e ->
        {
          Check.Invariant.origin = e.Tables.origin;
          dest = e.Tables.dest;
          always_on = e.Tables.always_on;
          on_demand = e.Tables.on_demand;
          failover = e.Tables.failover;
        })
      (Tables.entries tables)
  in
  Check.Invariant.check_tables g ~pairs entries

let validate_tables g ~pairs tables =
  match Check.Finding.errors (table_findings g ~pairs tables) with
  | [] -> ()
  | errors ->
      invalid_arg
        ("Framework.precompute: table invariants violated:\n" ^ Check.Finding.render errors)

let precompute ?(config = default) ?(jobs = 1) g power ~pairs =
  if config.n_paths < 2 then invalid_arg "Framework.precompute: n_paths >= 2";
  Obs.Span.with_ "core.precompute" (fun () ->
      let always_on =
        Obs.Span.with_ "core.precompute.always_on" (fun () ->
            Always_on.compute ~margin:config.margin ~mode:config.always_on_mode
              ?latency_beta:config.latency_beta g power ~pairs ())
      in
      let rounds = max 1 (config.n_paths - 2) in
      let on_demand =
        Obs.Span.with_ "core.precompute.on_demand" (fun () ->
            On_demand.compute ~margin:config.margin ~rounds g power ~always_on ~pairs
              config.on_demand)
      in
      let protect = Hashtbl.create (List.length pairs) in
      List.iter
        (fun od ->
          match Hashtbl.find_opt always_on.Always_on.paths od with
          | None -> ()
          | Some ao ->
              let ods = Option.value (Hashtbl.find_opt on_demand od) ~default:[] in
              Hashtbl.replace protect od (ao :: ods))
        pairs;
      let failover =
        Obs.Span.with_ "core.precompute.failover" (fun () ->
            Failover.compute ~jobs g ~protect ~pairs)
      in
      let entries =
        List.filter_map
          (fun (o, d) ->
            match Hashtbl.find_opt always_on.Always_on.paths (o, d) with
            | None -> None
            | Some ao ->
                Some
                  {
                    Tables.origin = o;
                    dest = d;
                    always_on = ao;
                    on_demand = Option.value (Hashtbl.find_opt on_demand (o, d)) ~default:[];
                    failover = Hashtbl.find_opt failover (o, d);
                  })
          pairs
      in
      let tables = Tables.make g entries in
      if Atomic.get install_checks then
        Obs.Span.with_ "core.precompute.validate" (fun () ->
            validate_tables g ~pairs tables);
      Obs.Metric.Counter.incr m_precomputes;
      Obs.Metric.Gauge.set_int m_table_entries (List.length entries);
      tables)

(* ------------------------------------------------------------------ *)
(* Memoized precompute                                                *)
(* ------------------------------------------------------------------ *)

(* Cache keys are exact digests of every input [precompute] reads: the
   topology structure, the power model evaluated over that topology (the
   model is a record of closures, so its observable behaviour on [g] is
   all a key can — and need — capture), the pair list and the config
   including any embedded traffic matrix. [jobs] is deliberately absent:
   tables are identical for any fan-out. *)

let power_signature g (p : Power.Model.t) =
  let b = Buffer.create 512 in
  Buffer.add_string b p.Power.Model.description;
  for n = 0 to Topo.Graph.node_count g - 1 do
    Buffer.add_string b (Printf.sprintf "|%h" (U.to_float (p.Power.Model.chassis n)))
  done;
  Topo.Graph.fold_arcs g ~init:() ~f:(fun () a ->
      Buffer.add_string b (Printf.sprintf "|%h" (U.to_float (p.Power.Model.port a))));
  for l = 0 to Topo.Graph.link_count g - 1 do
    Buffer.add_string b (Printf.sprintf "|%h" (U.to_float (p.Power.Model.amplifier l)))
  done;
  Buffer.contents b

let variant_signature = function
  | Solver tm -> "solver:" ^ Traffic.Matrix.signature tm
  | Stress q -> Printf.sprintf "stress:%h" q
  | Ospf -> "ospf"
  | Heuristic tm -> "heuristic:" ^ Traffic.Matrix.signature tm

let config_signature c =
  let mode =
    match c.always_on_mode with
    | Always_on.Oblivious -> "oblivious"
    | Always_on.Epsilon -> "epsilon"
    | Always_on.Off_peak tm -> "off_peak:" ^ Traffic.Matrix.signature tm
  in
  let beta = match c.latency_beta with None -> "none" | Some b -> Printf.sprintf "%h" b in
  Printf.sprintf "%h|%d|%s|%s|%s" (U.to_float c.margin) c.n_paths beta mode
    (variant_signature c.on_demand)

let cache : (string, Tables.t) Eutil.Memo.t = Eutil.Memo.create ~capacity:32 ()

let cache_clear () = Eutil.Memo.clear cache

let precompute_cached ?(config = default) ?(jobs = 1) g power ~pairs =
  let pair_sig p = Printf.sprintf "%d,%d" (fst p) (snd p) in
  let key =
    String.concat "/"
      [ Topo.Graph.signature g;
        power_signature g power;
        String.concat ";" (List.map pair_sig pairs);
        config_signature config ]
  in
  Eutil.Memo.find_or_add cache key ~compute:(fun _ ->
      precompute ~config ~jobs g power ~pairs)

type evaluation = {
  state : Topo.State.t;
  power_watts : float;
  power_percent : float;
  max_utilization : float;
  levels_activated : int;
  congested : (int * int) list;
}

(* Max utilisation a path would reach if the demand were added on top of the
   current loads. *)
let path_util_with g loads p demand =
  Array.fold_left
    (fun acc a ->
      let arc = Topo.Graph.arc g a in
      max acc ((loads.(a) +. demand) /. arc.Topo.Graph.capacity))
    0.0 p.Topo.Path.arcs

let place_flows ?threshold ?max_level tables tm =
  let threshold = U.to_float (match threshold with Some t -> t | None -> U.ratio 0.9) in
  let g = Tables.graph tables in
  let loads = Array.make (Topo.Graph.arc_count g) 0.0 in
  let levels = ref 0 in
  let congested = ref [] in
  let placed = ref [] in
  List.iter
    (fun (o, d, demand) ->
      match Tables.find tables o d with
      | None -> congested := (o, d) :: !congested
      | Some e ->
          let paths = Tables.paths e in
          let limit =
            match max_level with
            | None -> Array.length paths
            | Some m -> min (Array.length paths) (m + 1)
          in
          (* First path (in activation order) that stays under the
             utilisation threshold; otherwise the least-loaded one. *)
          let chosen = ref None in
          (try
             for i = 0 to limit - 1 do
               if path_util_with g loads paths.(i) demand <= threshold then begin
                 chosen := Some (i, paths.(i));
                 raise Exit
               end
             done
           with Exit -> ());
          let i, p =
            match !chosen with
            | Some x -> x
            | None ->
                (* Spill: minimise the resulting worst utilisation. *)
                let best = ref (0, paths.(0), path_util_with g loads paths.(0) demand) in
                for i = 1 to limit - 1 do
                  let u = path_util_with g loads paths.(i) demand in
                  let _, _, bu = !best in
                  if u < bu then best := (i, paths.(i), u)
                done;
                let i, p, u = !best in
                if u > 1.0 then congested := (o, d) :: !congested;
                (i, p)
          in
          levels := max !levels i;
          Array.iter (fun a -> loads.(a) <- loads.(a) +. demand) p.Topo.Path.arcs;
          placed := ((o, d), p) :: !placed)
    (Traffic.Matrix.flows_desc tm);
  (loads, !levels, List.rev !congested, !placed)

let evaluate ?threshold tables power tm =
  Obs.Metric.Counter.incr m_evaluations;
  let g = Tables.graph tables in
  let loads, levels_activated, congested, _ = place_flows ?threshold tables tm in
  let link_load l =
    let a1, a2 = Topo.Graph.arcs_of_link g l in
    loads.(a1) +. loads.(a2)
  in
  let state = Power.Model.state_of_loads g link_load in
  let max_utilization =
    Array.fold_left max 0.0
      (Array.mapi (fun a load -> load /. (Topo.Graph.arc g a).Topo.Graph.capacity) loads)
  in
  let figures = Power.Model.figures power g state in
  {
    state;
    power_watts = U.to_float figures.Power.Model.total;
    power_percent = figures.Power.Model.percent;
    max_utilization;
    levels_activated;
    congested;
  }

let loads ?threshold tables tm =
  let loads, _, _, _ = place_flows ?threshold tables tm in
  loads

let carried_fraction ?threshold tables _power ~base ~max_level =
  let fits scale =
    let tm = Traffic.Matrix.scale base scale in
    let _, _, congested, _ = place_flows ?threshold ~max_level tables tm in
    congested = []
  in
  (* Search window for the feasible demand scale: six orders of magnitude
     either side of the base matrix. *)
  let scale_min = 1e-6 and scale_max = 1e6 in
  if not (fits scale_min) then 0.0
  else begin
    (* Exponential search then bisection on the feasible scale. *)
    let hi = ref scale_min in
    while fits (2.0 *. !hi) && !hi < scale_max do
      hi := 2.0 *. !hi
    done;
    let lo = ref !hi and hi = ref (2.0 *. !hi) in
    for _ = 1 to 30 do
      let mid = (!lo +. !hi) /. 2.0 in
      if fits mid then lo := mid else hi := mid
    done;
    !lo
  end
