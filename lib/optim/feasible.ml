type t = {
  g : Topo.Graph.t;
  st : Topo.State.t;
  residual_a : float array;
  load_a : float array;
  (* Placements, in a dense slot table. A pair gets a slot at its first
     commit and keeps it ([slot_of] is consulted once per call). Slot
     [s < n_slots] holds the pair ([s_orig.(s)], [s_dst.(s)]) and its
     binding [s_bind.(s)]: the committed path and volume, [None] when the
     pair is not placed. *)
  slot_of : (int * int, int) Hashtbl.t;
  mutable n_slots : int;
  mutable s_orig : int array;
  mutable s_dst : int array;
  mutable s_bind : (Topo.Path.t * float) option array;
  (* Undo log of the open trial. Entry [i < log_len] holds the residual and
     load arc [log_arc.(i)] had before a write; entry [i < log_binds] the
     binding slot [log_slot.(i)] had before a write. *)
  mutable in_trial : bool;
  mutable log_arc : int array;
  mutable log_residual : float array;
  mutable log_load : float array;
  mutable log_len : int;
  mutable log_slot : int array;
  mutable log_bind : (Topo.Path.t * float) option array;
  mutable log_binds : int;
}

let create ?(margin = 1.0) ?state g =
  if not (margin > 0.0) then invalid_arg "Feasible.create: margin";
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
    slot_of = Hashtbl.create 64;
    n_slots = 0;
    s_orig = [||];
    s_dst = [||];
    s_bind = [||];
    in_trial = false;
    log_arc = [||];
    log_residual = [||];
    log_load = [||];
    log_len = 0;
    log_slot = [||];
    log_bind = [||];
    log_binds = 0;
  }

let graph t = t.g
let state t = t.st
let residual t a = t.residual_a.(a)
let load t a = t.load_a.(a)

let congestion_weight t arc =
  arc.Topo.Graph.latency
  *. (1.0 +. (3.0 *. (t.load_a.(arc.Topo.Graph.id) /. arc.Topo.Graph.capacity)))

(* [a] with room at index [i]: at least 64 more slots, filled with [fill],
   once it is full. *)
let room a i fill = if i < Array.length a then a else Array.append a (Array.make (max 64 i) fill)

(* Records arc [a]'s residual and load before a write, when a trial is open. *)
let log_arc t a =
  if t.in_trial then begin
    let i = t.log_len in
    t.log_arc <- room t.log_arc i 0;
    t.log_residual <- room t.log_residual i 0.0;
    t.log_load <- room t.log_load i 0.0;
    t.log_arc.(i) <- a;
    t.log_residual.(i) <- t.residual_a.(a);
    t.log_load.(i) <- t.load_a.(a);
    t.log_len <- i + 1
  end

(* The pair's slot, or -1 if it was never committed. *)
let find_slot t o d = match Hashtbl.find_opt t.slot_of (o, d) with Some s -> s | None -> -1

let new_slot t o d =
  let s = t.n_slots in
  t.s_orig <- room t.s_orig s 0;
  t.s_dst <- room t.s_dst s 0;
  t.s_bind <- room t.s_bind s None;
  t.s_orig.(s) <- o;
  t.s_dst.(s) <- d;
  t.n_slots <- s + 1;
  Hashtbl.replace t.slot_of (o, d) s;
  s

let placed t s = s >= 0 && Option.is_some t.s_bind.(s)

(* Sets slot [s]'s binding, logging the previous one when a trial is open. *)
let bind t s binding =
  if t.in_trial then begin
    let i = t.log_binds in
    t.log_slot <- room t.log_slot i 0;
    t.log_bind <- room t.log_bind i None;
    t.log_slot.(i) <- s;
    t.log_bind.(i) <- t.s_bind.(s);
    t.log_binds <- i + 1
  end;
  t.s_bind.(s) <- binding

(* Commits [p] for [demand] in slot [s] (-1: the pair gets a new slot). *)
let commit t s p demand =
  let arcs = p.Topo.Path.arcs in
  for i = 0 to Array.length arcs - 1 do
    let a = arcs.(i) in
    log_arc t a;
    t.residual_a.(a) <- t.residual_a.(a) -. demand;
    t.load_a.(a) <- t.load_a.(a) +. demand
  done;
  let s = if s >= 0 then s else new_slot t p.Topo.Path.src p.Topo.Path.dst in
  bind t s (Some (p, demand))

(* [place], searching [walk] when given: [Routing.Dijkstra.walk] of
   [t.st]'s link mask, which must not have changed since. *)
let place_walking ?walk t o d demand =
  let s = find_slot t o d in
  if placed t s then invalid_arg "Feasible.place: already placed";
  if not (demand > 0.0) then invalid_arg "Feasible.place: demand";
  match
    Routing.Dijkstra.shortest_path_congested ?walk t.g ~on:(Topo.State.link_mask t.st)
      ~residual:t.residual_a ~load:t.load_a ~demand ~src:o ~dst:d
  with
  | None -> None
  | Some p ->
      commit t s p demand;
      Some p

let place t o d demand = place_walking t o d demand

let place_on t p demand =
  let s = find_slot t p.Topo.Path.src p.Topo.Path.dst in
  if placed t s then invalid_arg "Feasible.place_on: already placed";
  if not (demand > 0.0) then invalid_arg "Feasible.place_on: demand";
  let ok =
    Array.for_all
      (fun a ->
        Topo.State.arc_on t.g t.st a && t.residual_a.(a) >= demand -. 1e-9)
      p.Topo.Path.arcs
  in
  if ok then commit t s p demand;
  ok

let remove t o d =
  let s = find_slot t o d in
  match if s < 0 then None else t.s_bind.(s) with
  | None -> None
  | Some ((p, demand) as binding) ->
      let arcs = p.Topo.Path.arcs in
      for i = 0 to Array.length arcs - 1 do
        let a = arcs.(i) in
        log_arc t a;
        t.residual_a.(a) <- t.residual_a.(a) +. demand;
        t.load_a.(a) <- t.load_a.(a) -. demand
      done;
      bind t s None;
      Some binding

let path_of t o d =
  let s = find_slot t o d in
  if s < 0 then None else Option.map fst t.s_bind.(s)

let flows t =
  let acc = ref [] in
  for s = t.n_slots - 1 downto 0 do
    match t.s_bind.(s) with
    | Some (_, v) -> acc := (t.s_orig.(s), t.s_dst.(s), v) :: !acc
    | None -> ()
  done;
  List.sort (Eutil.Order.triple Int.compare Int.compare Float.compare) !acc

(* Volume descending, then origin, then destination. *)
let reroute_order (o1, d1, v1) (o2, d2, v2) =
  let c = Float.compare v2 v1 in
  if c <> 0 then c
  else
    let c = Int.compare o1 o2 in
    if c <> 0 then c else Int.compare d1 d2

let rec in_reroute_order = function
  | a :: (b :: _ as rest) -> reroute_order a b <= 0 && in_reroute_order rest
  | _ -> true

(* The hits come out in slot order, which is reroute order whenever the
   pairs were first committed in that order and kept their volumes (as in
   [Minimal.power_down]); otherwise they are sorted. *)
let crossing t links =
  let mask = Array.make (Topo.Graph.arc_count t.g) false in
  List.iter
    (fun l ->
      let a1, a2 = Topo.Graph.arcs_of_link t.g l in
      mask.(a1) <- true;
      mask.(a2) <- true)
    links;
  let hits = ref [] in
  for s = t.n_slots - 1 downto 0 do
    match t.s_bind.(s) with
    | None -> ()
    | Some (p, v) ->
        let arcs = p.Topo.Path.arcs in
        let n = Array.length arcs in
        let i = ref 0 in
        while !i < n && not mask.(arcs.(!i)) do
          incr i
        done;
        if !i < n then hits := (t.s_orig.(s), t.s_dst.(s), v) :: !hits
  done;
  if in_reroute_order !hits then !hits else List.sort reroute_order !hits

(* The state does not change during the call, so one walk set serves
   every placement. *)
let route_matrix t tm =
  let walk = Routing.Dijkstra.walk t.g ~on:(Topo.State.link_mask t.st) in
  List.for_all
    (fun (o, d, demand) -> place_walking ~walk t o d demand <> None)
    (Traffic.Matrix.flows_desc tm)

(* Replays the log newest first, so every arc gets back the exact floats it
   had when the trial opened and every slot its binding. *)
let close_trial t ~rollback =
  if rollback then begin
    for i = t.log_len - 1 downto 0 do
      let a = t.log_arc.(i) in
      t.residual_a.(a) <- t.log_residual.(i);
      t.load_a.(a) <- t.log_load.(i)
    done;
    for i = t.log_binds - 1 downto 0 do
      t.s_bind.(t.log_slot.(i)) <- t.log_bind.(i)
    done
  end;
  t.in_trial <- false;
  t.log_len <- 0;
  t.log_binds <- 0

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
