module U = Eutil.Units

type result = {
  state : Topo.State.t;
  routing : (int * int, Topo.Path.t) Hashtbl.t;
  arc_load : float array;
  power_watts : float;
  power_percent : float;
}

type reroute = Feasible.t -> int -> int -> float -> Topo.Path.t option

let dijkstra_reroute f o d demand = Feasible.place f o d demand

let ksp_reroute table f o d demand =
  match Hashtbl.find_opt table (o, d) with
  | None -> None
  | Some candidates ->
      let g = Feasible.graph f in
      let st = Feasible.state f in
      let usable =
        List.filter
          (fun p ->
            Topo.Path.active g st p
            && Array.for_all (fun a -> Feasible.residual f a >= demand -. 1e-9) p.Topo.Path.arcs)
          candidates
      in
      let cost p =
        Array.fold_left
          (fun acc a -> acc +. Feasible.congestion_weight f (Topo.Graph.arc g a))
          0.0 p.Topo.Path.arcs
      in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | Some (bc, _) when bc <= cost p -> acc
            | _ -> Some (cost p, p))
          None usable
      in
      Option.bind best (fun (_, p) -> if Feasible.place_on f p demand then Some p else None)

(* Candidate moves: a move is a set of links switched off together. *)
type move = { links : int list; gain : float }

let router_moves g power tm =
  (* A router can only be switched off when it neither originates nor
     terminates demand. *)
  let has_demand = Array.make (Topo.Graph.node_count g) false in
  Traffic.Matrix.iter_flows tm ~f:(fun o d _ ->
      has_demand.(o) <- true;
      has_demand.(d) <- true);
  Topo.Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
      if has_demand.(n) || Topo.Graph.role g n = Topo.Graph.Host then acc
      else begin
        let links =
          let ls = ref [] in
          Array.iter
            (fun a -> ls := (Topo.Graph.arc g a).Topo.Graph.link :: !ls)
            (Topo.Graph.out_arcs g n);
          List.sort_uniq Int.compare !ls
        in
        let gain =
          U.to_float
            (List.fold_left
               (fun s l -> U.( +: ) s (Power.Model.link_power power g l))
               (Power.Model.node_power power g n)
               links)
        in
        { links; gain } :: acc
      end)
  |> List.sort (Eutil.Order.by (fun m -> (m.gain, m.links))
                  (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

let link_moves g power =
  Topo.Graph.fold_links g ~init:[] ~f:(fun acc l ->
      { links = [ l ]; gain = U.to_float (Power.Model.link_power power g l) } :: acc)
  |> List.sort (Eutil.Order.by (fun m -> (m.gain, m.links))
                  (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

let result_of g power f =
  let st = Feasible.state f in
  let routing = Hashtbl.create 64 in
  List.iter
    (fun (o, d, _) ->
      match Feasible.path_of f o d with Some p -> Hashtbl.replace routing (o, d) p | None -> ())
    (Feasible.flows f);
  let arc_load = Array.init (Topo.Graph.arc_count g) (fun a -> Feasible.load f a) in
  let figures = Power.Model.figures power g st in
  {
    state = st;
    routing;
    arc_load;
    power_watts = U.to_float figures.Power.Model.total;
    power_percent = figures.Power.Model.percent;
  }

(* Greedy work, tallied per [power_down] and flushed once behind
   [Obs.Control.enabled]. *)
let m_moves =
  Obs.Metric.Family.counter ~help:"Greedy moves tried by power_down, by outcome"
    ~label_names:[ "outcome" ] "optim_greedy_moves_total"

let m_moves_skipped = Obs.Metric.Family.labels m_moves [ "skipped" ]
let m_moves_disconnected = Obs.Metric.Family.labels m_moves [ "disconnected" ]
let m_moves_rejected = Obs.Metric.Family.labels m_moves [ "rejected" ]
let m_moves_accepted = Obs.Metric.Family.labels m_moves [ "accepted" ]

let m_displaced =
  Obs.Metric.Counter.create ~help:"Flows removed by the greedy's reroute trials"
    "optim_greedy_displaced_flows_total"

type tally = {
  mutable skipped : int;
  mutable disconnected : int;
  mutable rejected : int;
  mutable accepted : int;
  mutable displaced : int;
}

let rec root parent v =
  let p = parent.(v) in
  if p = v then v
  else begin
    let r = root parent p in
    parent.(v) <- r;
    r
  end

(* Whether some flow of [pairs] has no path over the links that are on:
   components by union-find over those links ([parent] is scratch space,
   one cell per node), then one look per pair. *)
let splits_a_pair g st parent pairs =
  for v = 0 to Array.length parent - 1 do
    parent.(v) <- v
  done;
  let on = Topo.State.link_mask st in
  for l = 0 to Array.length on - 1 do
    if on.(l) then begin
      let a, b = Topo.Graph.link_endpoints g l in
      let ra = root parent a and rb = root parent b in
      if ra <> rb then parent.(ra) <- rb
    end
  done;
  List.exists (fun (o, d, _) -> root parent o <> root parent d) pairs

(* Switches the move's links off if every flow crossing them can be
   rerouted on what remains; otherwise leaves [f] exactly as it was.

   A move that splits a placed pair is turned down before any flow is
   removed. During the move loop the placed pairs are the matrix's flows,
   and a pair whose path avoids the move keeps a path that is on, so some
   placed pair is split exactly when some displaced pair is. That pair's
   reroute would fail (a reroute commits only paths that are on), and the
   trial would roll back to the state the early exit leaves. [pairs] are
   the matrix's flows. *)
let try_move g f ~parent ~pairs reroute tally move =
  let st = Feasible.state f in
  let relevant = List.filter (fun l -> Topo.State.link_on st l) move.links in
  if relevant = [] then tally.skipped <- tally.skipped + 1
  else begin
    List.iter (fun l -> Topo.State.set_link g st l false) relevant;
    if splits_a_pair g st parent pairs then begin
      List.iter (fun l -> Topo.State.set_link g st l true) relevant;
      tally.disconnected <- tally.disconnected + 1
    end
    else begin
      let affected = Feasible.crossing f relevant in
      tally.displaced <- tally.displaced + List.length affected;
      let ok =
        Feasible.trial f (fun () ->
            List.iter (fun (o, d, _) -> ignore (Feasible.remove f o d)) affected;
            List.for_all (fun (o, d, v) -> reroute f o d v <> None) affected)
      in
      if ok then tally.accepted <- tally.accepted + 1
      else begin
        List.iter (fun l -> Topo.State.set_link g st l true) relevant;
        tally.rejected <- tally.rejected + 1
      end
    end
  end

let power_down ?margin ?(pinned = fun _ -> false) ?(reroute = dijkstra_reroute) g power
    tm =
  let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
  let f = Feasible.create ~margin g in
  if not (Feasible.route_matrix f tm) then None
  else begin
    let moves = router_moves g power tm @ link_moves g power in
    let parent = Array.make (Topo.Graph.node_count g) 0 and pairs = Traffic.Matrix.flows tm in
    let tally = { skipped = 0; disconnected = 0; rejected = 0; accepted = 0; displaced = 0 } in
    List.iter
      (fun move ->
        if not (List.exists pinned move.links) then try_move g f ~parent ~pairs reroute tally move)
      moves;
    if Obs.Control.enabled () then begin
      Obs.Metric.Counter.add_int m_moves_skipped tally.skipped;
      Obs.Metric.Counter.add_int m_moves_disconnected tally.disconnected;
      Obs.Metric.Counter.add_int m_moves_rejected tally.rejected;
      Obs.Metric.Counter.add_int m_moves_accepted tally.accepted;
      Obs.Metric.Counter.add_int m_displaced tally.displaced
    end;
    Some (result_of g power f)
  end

let evaluate ?margin g power tm state =
  let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
  let f = Feasible.create ~margin ~state g in
  if Feasible.route_matrix f tm then Some (result_of g power f) else None
