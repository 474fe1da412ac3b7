type result = { dist : float array; prev_arc : int array }

let default_weight arc = arc.Topo.Graph.latency

(* Heap traffic is tallied into locals (an int add per op) and flushed to
   the registry once per run, so the hot loop carries no observability
   calls. *)
let m_runs =
  Obs.Metric.Counter.create ~help:"Dijkstra single-source invocations"
    "routing_dijkstra_runs_total"

let m_heap_pushes =
  Obs.Metric.Counter.create ~help:"Heap pushes across all Dijkstra runs"
    "routing_heap_pushes_total"

let m_heap_pops =
  Obs.Metric.Counter.create ~help:"Heap pops across all Dijkstra runs"
    "routing_heap_pops_total"

(* Dijkstra from [src] into [dist]/[prev_arc]/[done_], which must hold
   [infinity]/-1/[false] for every node, with [heap] empty. The search stops
   when [stop] is popped (-1 never is). A settled node is never re-parented,
   so a zero-weight arc back into the tree cannot close a cycle in
   [prev_arc]. Ties keep the smaller arc id.

   A leaf (a degree-1 node) other than [stop] is never pushed. Its one
   in-arc is relaxed once, when its neighbour settles, so that relaxation
   is final: without a [stop] the leaf takes its [dist] and [prev_arc] there
   and is marked settled. With one, no path to [stop] can pass through the
   leaf, so it is skipped before [active] and [weight] are called. The
   other pushes keep their relative order, so ties pop as before.

   A popped [u] that is not yet settled has [dist.(u)] as its priority:
   each push of [u] sets [dist.(u)] to a value no greater than before, so
   the first of its entries to pop carries the current one. The graph's
   arrays are read once here because every library is compiled [-opaque]:
   a [Topo.Graph] accessor per arc would be a call per arc. *)
let search g ~weight ~active ~dist ~prev_arc ~done_ ~heap ~src ~stop =
  let adj = Topo.Graph.adjacency g and arcs = Topo.Graph.arcs g in
  let prune = stop >= 0 in
  let pushes = ref 1 and pops = ref 0 in
  dist.(src) <- 0.0;
  Eutil.Heap.push heap 0.0 src;
  let running = ref true in
  (* [heap] starts empty, so it holds [!pushes - !pops] entries. *)
  while !running && !pops < !pushes do
    let u = Eutil.Heap.take heap in
    incr pops;
    if u = stop then running := false
    else if not done_.(u) then begin
      done_.(u) <- true;
      let d = dist.(u) in
      let out = adj.(u) in
      for i = 0 to Array.length out - 1 do
        let aid = out.(i) in
        let arc = arcs.(aid) in
        let v = arc.Topo.Graph.dst in
        if not done_.(v) then begin
          let leaf = Array.length adj.(v) = 1 && v <> stop in
          if not (leaf && prune) && active arc then begin
            let w = weight arc in
            if w < infinity && w >= 0.0 then begin
              let nd = d +. w in
              if nd < dist.(v) || (nd = dist.(v) && prev_arc.(v) >= 0 && aid < prev_arc.(v))
              then begin
                dist.(v) <- nd;
                prev_arc.(v) <- aid;
                if leaf then done_.(v) <- true
                else begin
                  incr pushes;
                  Eutil.Heap.push heap nd v
                end
              end
            end
          end
        end
      done
    end
  done;
  if Obs.Control.enabled () then begin
    Obs.Metric.Counter.incr m_runs;
    Obs.Metric.Counter.add_int m_heap_pushes !pushes;
    Obs.Metric.Counter.add_int m_heap_pops !pops
  end

let run g ?(weight = default_weight) ?(active = fun _ -> true) ~src () =
  let n = Topo.Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_arc = Array.make n (-1) in
  search g ~weight ~active ~dist ~prev_arc ~done_:(Array.make n false)
    ~heap:(Eutil.Heap.create ()) ~src ~stop:(-1);
  { dist; prev_arc }

let collect_path g prev_arc dst =
  let rec collect acc node =
    let a = prev_arc.(node) in
    if a < 0 then acc else collect (a :: acc) (Topo.Graph.arc g a).Topo.Graph.src
  in
  match collect [] dst with [] -> None | arcs -> Some (Topo.Path.of_arcs g arcs)

let path_to g res dst = if res.dist.(dst) = infinity then None else collect_path g res.prev_arc dst

(* One workspace per domain for [shortest_path]: the three per-node arrays
   grow to the largest graph seen and are refilled per call, and the heap is
   emptied with [Heap.clear]. Domain-local, so parallel callers never share
   one. *)
type workspace = {
  mutable ws_dist : float array;
  mutable ws_prev : int array;
  mutable ws_done : bool array;
  ws_heap : int Eutil.Heap.t;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { ws_dist = [||]; ws_prev = [||]; ws_done = [||]; ws_heap = Eutil.Heap.create () })

let workspace n =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.ws_dist < n then begin
    ws.ws_dist <- Array.make n infinity;
    ws.ws_prev <- Array.make n (-1);
    ws.ws_done <- Array.make n false
  end
  else begin
    Array.fill ws.ws_dist 0 n infinity;
    Array.fill ws.ws_prev 0 n (-1);
    Array.fill ws.ws_done 0 n false
  end;
  Eutil.Heap.clear ws.ws_heap;
  ws

(* Stopping at [dst] is exact: [dst] and every node on its path are settled
   by then, and nothing popped later changes a settled node. *)
let shortest_path g ?(weight = default_weight) ?(active = fun _ -> true) ~src ~dst () =
  let ws = workspace (Topo.Graph.node_count g) in
  search g ~weight ~active ~dist:ws.ws_dist ~prev_arc:ws.ws_prev ~done_:ws.ws_done
    ~heap:ws.ws_heap ~src ~stop:dst;
  if ws.ws_dist.(dst) = infinity then None else collect_path g ws.ws_prev dst
