type t = {
  g : Topo.Graph.t;
  st : Topo.State.t;
  residual_a : float array;
  load_a : float array;
  placed : (int * int, Topo.Path.t * float) Hashtbl.t;
  (* Undo log of the open trial. Entry [i < log_len] holds the residual and
     load arc [log_arc.(i)] had before a write; [log_pairs] holds each
     touched pair's previous binding, newest first. *)
  mutable in_trial : bool;
  mutable log_arc : int array;
  mutable log_residual : float array;
  mutable log_load : float array;
  mutable log_len : int;
  mutable log_pairs : ((int * int) * (Topo.Path.t * float) option) list;
}

let create ?(margin = 1.0) ?state g =
  if margin <= 0.0 then invalid_arg "Feasible.create: margin";
  let st = match state with Some s -> s | None -> Topo.State.all_on g in
  let n_arcs = Topo.Graph.arc_count g in
  let residual_a =
    Array.init n_arcs (fun a -> margin *. (Topo.Graph.arc g a).Topo.Graph.capacity)
  in
  {
    g;
    st;
    residual_a;
    load_a = Array.make n_arcs 0.0;
    placed = Hashtbl.create 64;
    in_trial = false;
    log_arc = [||];
    log_residual = [||];
    log_load = [||];
    log_len = 0;
    log_pairs = [];
  }

let graph t = t.g
let state t = t.st
let residual t a = t.residual_a.(a)
let load t a = t.load_a.(a)

let utilization t a = t.load_a.(a) /. (Topo.Graph.arc t.g a).Topo.Graph.capacity

let max_utilization t =
  let m = ref 0.0 in
  Array.iteri (fun a _ -> m := max !m (utilization t a)) t.load_a;
  !m

let congestion_weight t arc =
  arc.Topo.Graph.latency
  *. (1.0 +. (3.0 *. (t.load_a.(arc.Topo.Graph.id) /. arc.Topo.Graph.capacity)))

(* Records arc [a]'s residual and load before a write, when a trial is open. *)
let log_arc t a =
  if t.in_trial then begin
    let i = t.log_len in
    if i = Array.length t.log_arc then begin
      let more = max 64 i in
      t.log_arc <- Array.append t.log_arc (Array.make more 0);
      t.log_residual <- Array.append t.log_residual (Array.make more 0.0);
      t.log_load <- Array.append t.log_load (Array.make more 0.0)
    end;
    t.log_arc.(i) <- a;
    t.log_residual.(i) <- t.residual_a.(a);
    t.log_load.(i) <- t.load_a.(a);
    t.log_len <- i + 1
  end

let log_pair t key =
  if t.in_trial then t.log_pairs <- (key, Hashtbl.find_opt t.placed key) :: t.log_pairs

let commit t p demand =
  Array.iter
    (fun a ->
      log_arc t a;
      t.residual_a.(a) <- t.residual_a.(a) -. demand;
      t.load_a.(a) <- t.load_a.(a) +. demand)
    p.Topo.Path.arcs;
  let key = (p.Topo.Path.src, p.Topo.Path.dst) in
  log_pair t key;
  Hashtbl.replace t.placed key (p, demand)

let place t o d demand =
  if Hashtbl.mem t.placed (o, d) then invalid_arg "Feasible.place: already placed";
  if demand <= 0.0 then invalid_arg "Feasible.place: demand";
  let active arc =
    Topo.State.link_on t.st arc.Topo.Graph.link
    && t.residual_a.(arc.Topo.Graph.id) >= demand -. 1e-9
  in
  match
    Routing.Dijkstra.shortest_path t.g ~weight:(congestion_weight t) ~active ~src:o ~dst:d ()
  with
  | None -> None
  | Some p ->
      commit t p demand;
      Some p

let place_on t p demand =
  let key = (p.Topo.Path.src, p.Topo.Path.dst) in
  if Hashtbl.mem t.placed key then invalid_arg "Feasible.place_on: already placed";
  let ok =
    Array.for_all
      (fun a ->
        Topo.State.arc_on t.g t.st a && t.residual_a.(a) >= demand -. 1e-9)
      p.Topo.Path.arcs
  in
  if ok then commit t p demand;
  ok

let remove t o d =
  match Hashtbl.find_opt t.placed (o, d) with
  | None -> None
  | Some (p, demand) ->
      Array.iter
        (fun a ->
          log_arc t a;
          t.residual_a.(a) <- t.residual_a.(a) +. demand;
          t.load_a.(a) <- t.load_a.(a) -. demand)
        p.Topo.Path.arcs;
      log_pair t (o, d);
      Hashtbl.remove t.placed (o, d);
      Some (p, demand)

let path_of t o d = Option.map fst (Hashtbl.find_opt t.placed (o, d))

let flows t =
  Hashtbl.fold (fun (o, d) (_, v) acc -> (o, d, v) :: acc) t.placed []
  |> List.sort (Eutil.Order.triple Int.compare Int.compare Float.compare)

let crossing t links =
  let mask = Array.make (Topo.Graph.arc_count t.g) false in
  List.iter
    (fun l ->
      let a1, a2 = Topo.Graph.arcs_of_link t.g l in
      mask.(a1) <- true;
      mask.(a2) <- true)
    links;
  let hits =
    Hashtbl.fold
      (fun (o, d) (p, v) acc ->
        if Array.exists (fun a -> mask.(a)) p.Topo.Path.arcs then (o, d, v) :: acc else acc)
      t.placed []
  in
  List.sort
    (fun (o1, d1, v1) (o2, d2, v2) ->
      let c = Float.compare v2 v1 in
      if c <> 0 then c
      else
        let c = Int.compare o1 o2 in
        if c <> 0 then c else Int.compare d1 d2)
    hits

let route_matrix t tm =
  List.for_all
    (fun (o, d, demand) -> place t o d demand <> None)
    (Traffic.Matrix.flows_desc tm)

(* Replays the log newest first, so every arc gets back the exact floats it
   had when the trial opened. *)
let close_trial t ~rollback =
  if rollback then begin
    for i = t.log_len - 1 downto 0 do
      let a = t.log_arc.(i) in
      t.residual_a.(a) <- t.log_residual.(i);
      t.load_a.(a) <- t.log_load.(i)
    done;
    List.iter
      (fun (key, prev) ->
        match prev with
        | Some binding -> Hashtbl.replace t.placed key binding
        | None -> Hashtbl.remove t.placed key)
      t.log_pairs
  end;
  t.in_trial <- false;
  t.log_len <- 0;
  t.log_pairs <- []

let trial t body =
  if t.in_trial then invalid_arg "Feasible.trial: nested trial";
  t.in_trial <- true;
  match body () with
  | ok ->
      close_trial t ~rollback:(not ok);
      ok
  | exception e ->
      close_trial t ~rollback:true;
      raise e
