type result = { dist : float array; prev_arc : int array }

let default_weight arc = arc.Topo.Graph.latency

(* Queue traffic is tallied into locals (an int add per op) and flushed to
   the registry once per run, so the hot loop carries no observability
   calls. *)
let m_runs =
  Obs.Metric.Counter.create ~help:"Dijkstra single-source invocations"
    "routing_dijkstra_runs_total"

let m_heap_pushes =
  Obs.Metric.Counter.create ~help:"Queue insertions across all Dijkstra runs"
    "routing_heap_pushes_total"

let m_heap_pops =
  Obs.Metric.Counter.create ~help:"Queue removals across all Dijkstra runs"
    "routing_heap_pops_total"

(* How the search weighs and filters an arc, picked once per call. The
   congestion arm is [Optim.Feasible.place]'s closures written out: the
   same expressions, so the same bits, with no call and no boxed float per
   arc. *)
type arm =
  | Closures of { weight : Topo.Graph.arc -> float; active : Topo.Graph.arc -> bool }
  | Congestion of {
      on : bool array;
      residual : float array;
      load : float array;
      demand : float;
    }

(* The queue is an indexed binary heap of nodes: [heap.(0 .. len - 1)],
   with [pos.(v)] the slot of a queued [v]. A node's key is
   ([dist.(v)], [seq.(v)]), where [seq] numbers the strict decreases of
   [dist] in the order they happen, so keys are distinct and the pop order
   is the key order whatever the layout. The annotations keep the
   comparison on floats: left polymorphic, it boxed both distances per call
   and the search ran slower than the lazy heap it replaced. *)
let[@inline] before (dist : float array) (seq : int array) u v =
  let du = dist.(u) and dv = dist.(v) in
  du < dv || (du = dv && seq.(u) < seq.(v))

(* Moves parents down into the hole at [i] until [v] fits. *)
let sift_up (heap : int array) pos dist seq i v =
  let i = ref i in
  while
    !i > 0
    &&
    let parent = heap.((!i - 1) / 2) in
    before dist seq v parent
  do
    let j = (!i - 1) / 2 in
    let parent = heap.(j) in
    heap.(!i) <- parent;
    pos.(parent) <- !i;
    i := j
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Fills the hole at slot 0 of a [len]-node heap with [v], moving the
   smaller child up until [v] fits. *)
let sift_down (heap : int array) pos dist seq len v =
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let c = if r < len && before dist seq heap.(r) heap.(l) then r else l in
      let child = heap.(c) in
      if before dist seq child v then begin
        heap.(!i) <- child;
        pos.(child) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Dijkstra from [src] into [dist]/[prev_arc]/[done_], which must hold
   [infinity]/-1/[false] for every node; [heap], [pos] and [seq] need no
   initial contents. The search stops when [stop] is popped (-1 never is).
   A settled node is never re-parented, so a zero-weight arc back into the
   tree cannot close a cycle in [prev_arc]. Ties keep the smaller arc id.

   Each reached node that is unsettled and not a leaf sits in the queue
   exactly once: a strict decrease of [dist.(v)] inserts [v] or sifts it up
   under a fresh [seq], and a tie relaxation only moves [prev_arc.(v)].
   The lazy heap this replaced popped nodes in the same order. There, the
   first entry of [v] to pop carried ([dist.(v)], the insertion number of
   the push that last strictly lowered it): a tie push had the same
   priority and a later number, and every other entry a larger priority.
   Strict decreases happen in the same order here, so [seq] orders those
   entries as the insertion numbers did, and the stale entries the lazy
   heap skipped are never made.

   Unsettled, unpruned nodes are queued exactly when their [dist] is
   finite, so [pos] and [seq] are read only where this search wrote them.

   A leaf (a degree-1 node) other than [stop] is never queued. Its one
   in-arc is relaxed once, when its neighbour settles, so that relaxation
   is final: without a [stop] the leaf takes its [dist] and [prev_arc] there
   and is marked settled. With one, no path to [stop] can pass through the
   leaf, so it is skipped before its arc is weighed. The graph's arrays are
   read once here because every library is compiled [-opaque]: a
   [Topo.Graph] accessor per arc would be a call per arc. *)
let search g arm ~dist ~prev_arc ~done_ ~heap ~pos ~seq ~src ~stop =
  let adj = Topo.Graph.adjacency g and arcs = Topo.Graph.arcs g in
  let prune = stop >= 0 in
  let pushes = ref 1 and pops = ref 0 and len = ref 1 and next = ref 1 in
  (* The candidate distance through the arc being relaxed; [infinity]
     relaxes nothing. A local float ref stays unboxed. *)
  let nd = ref 0.0 in
  dist.(src) <- 0.0;
  seq.(src) <- 0;
  heap.(0) <- src;
  pos.(src) <- 0;
  while !len > 0 do
    let u = heap.(0) in
    incr pops;
    if u = stop then len := 0
    else begin
      let last = !len - 1 in
      len := last;
      if last > 0 then sift_down heap pos dist seq last heap.(last);
      done_.(u) <- true;
      let d = dist.(u) in
      let out = adj.(u) in
      for i = 0 to Array.length out - 1 do
        let aid = out.(i) in
        let arc = arcs.(aid) in
        let v = arc.Topo.Graph.dst in
        if not done_.(v) then begin
          let leaf = Array.length adj.(v) = 1 && v <> stop in
          if not (leaf && prune) then begin
            (match arm with
            | Closures c ->
                if c.active arc then begin
                  let w = c.weight arc in
                  nd := if w < infinity && w >= 0.0 then d +. w else infinity
                end
                else nd := infinity
            | Congestion c ->
                if c.on.(arc.Topo.Graph.link) && c.residual.(aid) >= c.demand -. 1e-9 then begin
                  let w =
                    arc.Topo.Graph.latency
                    *. (1.0 +. (3.0 *. (c.load.(aid) /. arc.Topo.Graph.capacity)))
                  in
                  nd := if w < infinity && w >= 0.0 then d +. w else infinity
                end
                else nd := infinity);
            let dv = dist.(v) in
            if !nd < dv then begin
              dist.(v) <- !nd;
              prev_arc.(v) <- aid;
              if leaf then done_.(v) <- true
              else begin
                seq.(v) <- !next;
                incr next;
                if dv = infinity then begin
                  incr pushes;
                  sift_up heap pos dist seq !len v;
                  incr len
                end
                else sift_up heap pos dist seq pos.(v) v
              end
            end
            else if !nd = dv && prev_arc.(v) >= 0 && aid < prev_arc.(v) then prev_arc.(v) <- aid
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

let closures weight active =
  Closures
    { weight = Option.value weight ~default:default_weight;
      active = Option.value active ~default:(fun _ -> true) }

let run g ?weight ?active ~src () =
  let n = Topo.Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_arc = Array.make n (-1) in
  search g (closures weight active) ~dist ~prev_arc ~done_:(Array.make n false)
    ~heap:(Array.make n 0) ~pos:(Array.make n 0) ~seq:(Array.make n 0) ~src ~stop:(-1);
  { dist; prev_arc }

let collect_path g prev_arc dst =
  let rec collect acc node =
    let a = prev_arc.(node) in
    if a < 0 then acc else collect (a :: acc) (Topo.Graph.arc g a).Topo.Graph.src
  in
  match collect [] dst with [] -> None | arcs -> Some (Topo.Path.of_arcs g arcs)

let path_to g res dst = if res.dist.(dst) = infinity then None else collect_path g res.prev_arc dst

(* One workspace per domain for the target-stopped searches: the per-node
   arrays grow to the largest graph seen; [dist], [prev_arc] and the
   settled flags are refilled per call, and the queue's arrays need no
   refill. Domain-local, so parallel callers never share one. *)
type workspace = {
  mutable ws_dist : float array;
  mutable ws_prev : int array;
  mutable ws_done : bool array;
  mutable ws_heap : int array;
  mutable ws_pos : int array;
  mutable ws_seq : int array;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { ws_dist = [||]; ws_prev = [||]; ws_done = [||]; ws_heap = [||]; ws_pos = [||];
        ws_seq = [||] })

let workspace n =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.ws_dist < n then begin
    ws.ws_dist <- Array.make n infinity;
    ws.ws_prev <- Array.make n (-1);
    ws.ws_done <- Array.make n false;
    ws.ws_heap <- Array.make n 0;
    ws.ws_pos <- Array.make n 0;
    ws.ws_seq <- Array.make n 0
  end
  else begin
    Array.fill ws.ws_dist 0 n infinity;
    Array.fill ws.ws_prev 0 n (-1);
    Array.fill ws.ws_done 0 n false
  end;
  ws

(* Stopping at [dst] is exact: [dst] and every node on its path are settled
   by then, and nothing popped later changes a settled node. *)
let stopped g arm ~src ~dst =
  let ws = workspace (Topo.Graph.node_count g) in
  search g arm ~dist:ws.ws_dist ~prev_arc:ws.ws_prev ~done_:ws.ws_done ~heap:ws.ws_heap
    ~pos:ws.ws_pos ~seq:ws.ws_seq ~src ~stop:dst;
  if ws.ws_dist.(dst) = infinity then None else collect_path g ws.ws_prev dst

let shortest_path g ?weight ?active ~src ~dst () = stopped g (closures weight active) ~src ~dst

let shortest_path_congested g ~on ~residual ~load ~demand ~src ~dst =
  stopped g (Congestion { on; residual; load; demand }) ~src ~dst
