type route = {
  r_level : int;
  r_links : int array;
  r_nodes : int list;  (* pre-compiled for the wire reply *)
}

type snapshot = {
  version : int;
  routes : (int * int, route array) Hashtbl.t;  (* read-only once published *)
  levels : int;
  power_percent : float;
}

type t = {
  graph : Topo.Graph.t;
  power : Power.Model.t;
  tables : Response.Tables.t;  (* built once at [create]; a rebuild only evaluates *)
  snap : snapshot Atomic.t;
  live_down : bool array Atomic.t;  (* copy-on-write; true = link down *)
  lock : Mutex.t;
  work : Condition.t;  (* generation advanced, or stopping *)
  done_ : Condition.t;  (* applied advanced, or stopping *)
  demand : Traffic.Matrix.t;  (* pending; guarded by [lock] *)
  base : Traffic.Matrix.t;  (* boot-time matrix, for journal checkpoints *)
  journal : Journal.t option;  (* appends/compactions under [lock] *)
  mutable generation : int;  (* guarded by [lock] *)
  mutable applied : int;  (* guarded by [lock] *)
  mutable stopped : bool;  (* guarded by [lock] *)
  mutable swaps : int;  (* guarded by [lock] *)
  mutable worker : unit Domain.t option;  (* guarded by [lock] *)
}

(* ------------------------- snapshot building ----------------------- *)

let route_of_path g ~level p =
  {
    r_level = level;
    r_links = Topo.Path.links g p;
    r_nodes = Array.to_list (Topo.Path.nodes g p);
  }

let routes_of_entry g entry =
  Array.mapi (fun level p -> route_of_path g ~level p) (Response.Tables.paths entry)

let compile_routes tables ~pairs =
  (* The memo may hand back an earlier structurally-identical graph; use
     the one the tables reference so link ids line up by construction. *)
  let tg = Response.Tables.graph tables in
  let routes = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (e : Response.Tables.entry) ->
      Hashtbl.replace routes (e.origin, e.dest) (routes_of_entry tg e))
    (Response.Tables.entries tables);
  routes

let build_snapshot tables power ~routes ~version tm =
  let eval = Response.Framework.evaluate tables power tm in
  {
    version;
    routes;
    levels = eval.Response.Framework.levels_activated;
    power_percent = eval.Response.Framework.power_percent;
  }

(* ------------------------------ journal ---------------------------- *)

(* Bit-equality so a checkpoint diff never confuses signed zeros; staged
   values are validated finite on entry. *)
let demand_changed a b = not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let pair_compare (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

(* Replays journal records onto the boot-time state, before the first
   snapshot is built. Records are re-validated against this topology (a
   journal from a different boot configuration must degrade to a partial
   replay, not a crash); invalid records are skipped. *)
let apply_journal g demand down records =
  let nodes = Topo.Graph.node_count g in
  let links = Array.length down in
  List.iter
    (fun r ->
      match r with
      | Wire.Demand_update { origin; dest; bps } ->
          if
            origin >= 0 && origin < nodes && dest >= 0 && dest < nodes && origin <> dest
            && Float.is_finite bps && bps >= 0.0
          then Traffic.Matrix.set demand origin dest bps
      | Wire.Link_event { link; up } -> if link >= 0 && link < links then down.(link) <- not up
      | _ -> ())
    records

(* Checkpoint = the diff of the staged state against the boot-time base:
   replaying it onto the same base reproduces the staged state exactly,
   and pairs never touched cost no record. Caller holds [lock]. *)
let checkpoint_locked t =
  match t.journal with
  | None -> ()
  | Some j ->
      let down = Atomic.get t.live_down in
      let touched =
        List.sort_uniq pair_compare
          (List.rev_append (Traffic.Matrix.pairs t.base) (Traffic.Matrix.pairs t.demand))
      in
      let demands =
        List.filter_map
          (fun (o, d) ->
            let v = Traffic.Matrix.get t.demand o d in
            if demand_changed v (Traffic.Matrix.get t.base o d) then
              Some (Wire.Demand_update { origin = o; dest = d; bps = v })
            else None)
          touched
      in
      let downs = ref [] in
      for link = Array.length down - 1 downto 0 do
        if down.(link) then downs := Wire.Link_event { link; up = false } :: !downs
      done;
      (* An IO failure here is already counted by the journal; the old
         (longer but equivalent) journal stays in place. *)
      match Journal.compact j (List.rev_append (List.rev demands) !downs) with
      | Ok () -> ()
      | Error _ -> ()

(* Caller holds [lock]. Append failures degrade durability, not service:
   the update is staged and acked either way, and the failure is counted
   on serve_journal_errors_total. *)
let journal_append_locked t req =
  match t.journal with
  | None -> ()
  | Some j -> ( match Journal.append j req with Ok () -> () | Error _ -> ())

(* -------------------------- recompute domain ----------------------- *)

(* Blocks until there is a rebuild to run (returning the target
   generation and a private copy of the pending matrix) or the state is
   stopped (returning None). *)
let next_work t =
  Mutex.lock t.lock;
  let rec wait () =
    if t.stopped then None
    else if t.generation > t.applied then
      Some (t.generation, Traffic.Matrix.copy t.demand)
    else begin
      Condition.wait t.work t.lock;
      wait ()
    end
  in
  let w = wait () in
  Mutex.unlock t.lock;
  w

let rebuild t ~target tm =
  let outcome =
    match
      Obs.Metric.Histogram.time Metrics.recompute_seconds (fun () ->
          (* Every snapshot shares the route table compiled at [create]. *)
          build_snapshot t.tables t.power ~routes:(Atomic.get t.snap).routes ~version:target tm)
    with
    | snap -> Some snap
    | exception Invalid_argument _ ->
        (* An evaluation that raised: keep serving the previous
           snapshot, count the drop, and still advance [applied] so a
           blocked reload cannot hang. *)
        None
  in
  (match outcome with
  | Some snap ->
      Atomic.set t.snap snap;
      Obs.Metric.Counter.incr Metrics.swaps
  | None -> Obs.Metric.Counter.incr Metrics.recompute_errors);
  Mutex.lock t.lock;
  (match outcome with
  | Some _ ->
      t.swaps <- t.swaps + 1;
      (* The swap is live: everything staged so far is subsumed by a
         checkpoint, bounding the journal by the staged state's size. *)
      checkpoint_locked t
  | None -> ());
  if target > t.applied then t.applied <- target;
  Condition.broadcast t.done_;
  Mutex.unlock t.lock

let rec recompute_loop t =
  match next_work t with
  | None -> ()
  | Some (target, tm) ->
      rebuild t ~target tm;
      recompute_loop t

(* ------------------------------ lifecycle -------------------------- *)

let create ?(config = Response.Framework.default) ?(jobs = 1) ?journal g power ~pairs ~demand =
  let staged = Traffic.Matrix.copy demand in
  let down0 = Array.make (Topo.Graph.link_count g) false in
  (* Replay before the first build: the restart's initial snapshot
     already contains every update the pre-crash daemon acknowledged. *)
  (match journal with
  | Some j -> apply_journal g staged down0 (Journal.entries j)
  | None -> ());
  let tables = Response.Framework.precompute_cached ~config ~jobs g power ~pairs in
  let routes = compile_routes tables ~pairs in
  let snap0 = build_snapshot tables power ~routes ~version:0 staged in
  let t =
    {
      graph = g;
      power;
      tables;
      snap = Atomic.make snap0;
      live_down = Atomic.make down0;
      lock = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      demand = staged;
      base = Traffic.Matrix.copy demand;
      journal;
      generation = 0;
      applied = 0;
      stopped = false;
      swaps = 0;
      worker = None;
    }
  in
  (* The replayed state is live: checkpoint it so a crash loop cannot
     re-replay an ever-growing tail. *)
  (match journal with
  | Some _ ->
      Mutex.lock t.lock;
      checkpoint_locked t;
      Mutex.unlock t.lock
  | None -> ());
  t.worker <- Some (Domain.spawn (fun () -> recompute_loop t));
  t

let stop t =
  Mutex.lock t.lock;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.work;
    Condition.broadcast t.done_
  end;
  let w = t.worker in
  t.worker <- None;
  Mutex.unlock t.lock;
  (match w with Some d -> Domain.join d | None -> ());
  match t.journal with Some j -> Journal.close j | None -> ()

(* ------------------------------- reads ----------------------------- *)

let route_blocked down r = Array.exists (fun link -> down.(link)) r.r_links

let resolve t ~origin ~dest =
  let snap = Atomic.get t.snap in
  let down = Atomic.get t.live_down in
  match Hashtbl.find_opt snap.routes (origin, dest) with
  | None -> (Wire.Unknown_pair, 0, [])
  | Some rs ->
      let n = Array.length rs in
      let rec pick i =
        if i >= n then (Wire.No_usable_path, 0, [])
        else
          let r = rs.(i) in
          if route_blocked down r then pick (i + 1) else (Wire.Path_ok, r.r_level, r.r_nodes)
      in
      pick 0

let version t = (Atomic.get t.snap).version

let figures t =
  let snap = Atomic.get t.snap in
  (snap.version, snap.levels, snap.power_percent)

let swap_count t =
  Mutex.lock t.lock;
  let n = t.swaps in
  Mutex.unlock t.lock;
  n

(* ------------------------------ writes ----------------------------- *)

let bump_locked t =
  t.generation <- t.generation + 1;
  let target = t.generation in
  Condition.signal t.work;
  target

let update_demand t ~origin ~dest ~bps =
  let n = Topo.Graph.node_count t.graph in
  if origin < 0 || origin >= n || dest < 0 || dest >= n then
    Error (Printf.sprintf "node id outside [0, %d)" n)
  else if origin = dest then Error "origin and destination coincide"
  else if (not (Float.is_finite bps)) || bps < 0.0 then
    Error "demand must be finite and non-negative"
  else begin
    Mutex.lock t.lock;
    Traffic.Matrix.set t.demand origin dest bps;
    journal_append_locked t (Wire.Demand_update { origin; dest; bps });
    let target = bump_locked t in
    Mutex.unlock t.lock;
    Ok target
  end

let set_link t ~link ~up =
  let n = Topo.Graph.link_count t.graph in
  if link < 0 || link >= n then Error (Printf.sprintf "link id outside [0, %d)" n)
  else begin
    Mutex.lock t.lock;
    let next = Array.copy (Atomic.get t.live_down) in
    next.(link) <- not up;
    Atomic.set t.live_down next;
    journal_append_locked t (Wire.Link_event { link; up });
    let target = bump_locked t in
    Mutex.unlock t.lock;
    Ok target
  end

let reload t =
  Mutex.lock t.lock;
  let target = bump_locked t in
  let rec wait () =
    if t.applied >= target || t.stopped then ()
    else begin
      Condition.wait t.done_ t.lock;
      wait ()
    end
  in
  wait ();
  Mutex.unlock t.lock;
  (Atomic.get t.snap).version
