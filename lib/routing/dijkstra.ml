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

(* A walk set in CSR form: node [u]'s usable out-arcs are
   [arcs.(start.(u)) .. arcs.(start.(u + 1) - 1)], in [adjacency] order. *)
type walk = { start : int array; arcs : int array }

(* Whether arc [aid] belongs in a walk set: its link is on and its head is
   not a leaf. *)
let usable adj (arcs : Topo.Graph.arc array) on aid =
  let arc = arcs.(aid) in
  on.(arc.Topo.Graph.link) && Array.length adj.(arc.Topo.Graph.dst) >= 2

let no_walk = { start = [||]; arcs = [||] }

(* Two passes, counting then filling, so [arcs] has exactly the walk set's
   size: on the fattree-elastic subsets that is about 610 of 2,592 arcs. *)
let walk g ~on =
  let adj = Topo.Graph.adjacency g and arcs = Topo.Graph.arcs g in
  let n = Array.length adj in
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let out = adj.(u) in
    let k = ref start.(u) in
    for i = 0 to Array.length out - 1 do
      if usable adj arcs on out.(i) then incr k
    done;
    start.(u + 1) <- !k
  done;
  let walked = Array.make start.(n) 0 in
  for u = 0 to n - 1 do
    let out = adj.(u) in
    let k = ref start.(u) in
    for i = 0 to Array.length out - 1 do
      let aid = out.(i) in
      if usable adj arcs on aid then begin
        walked.(!k) <- aid;
        incr k
      end
    done
  done;
  { start; arcs = walked }

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
   [infinity]/-1/[false] for every node; [heap], [pos], [seq] and
   [touched] need no initial contents. The search stops when [stop] is
   popped (-1 never is). It returns how many nodes it queued, and
   [touched] lists them in queueing order, [src] first.
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
   [Topo.Graph] accessor per arc would be a call per arc.

   With a [walk] (target-stopped searches only), a settled node walks its
   walk set instead of its adjacency; it leaves out exactly the arcs that
   write nothing here: arcs into a leaf other than [stop], which are
   skipped before they are weighed, and arcs whose link is off, which
   weigh [infinity]. The one exception is the tail of a leaf [stop]: the
   walk set leaves out the arc into [stop] too, so that node walks its
   full adjacency, and the arc is relaxed in its place among the others.
   Every write, and so every [seq], happens as without the walk. *)
let search g arm ~walk ~dist ~prev_arc ~done_ ~heap ~pos ~seq ~touched ~src ~stop =
  let adj = Topo.Graph.adjacency g and arcs = Topo.Graph.arcs g in
  let prune = stop >= 0 in
  let w = match walk with Some w -> w | None -> no_walk in
  let walked = Option.is_some walk in
  let tail =
    if walked && Array.length adj.(stop) = 1 then arcs.(adj.(stop).(0)).Topo.Graph.dst else -1
  in
  let pushes = ref 1 and pops = ref 0 and len = ref 1 and next = ref 1 in
  (* The candidate distance through the arc being relaxed; [infinity]
     relaxes nothing. A local float ref stays unboxed. *)
  let nd = ref 0.0 in
  dist.(src) <- 0.0;
  seq.(src) <- 0;
  heap.(0) <- src;
  pos.(src) <- 0;
  touched.(0) <- src;
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
      let full = (not walked) || u = tail in
      let out = if full then adj.(u) else w.arcs in
      let first = if full then 0 else w.start.(u) in
      let stop_at = if full then Array.length out else w.start.(u + 1) in
      for i = first to stop_at - 1 do
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
                  touched.(!pushes) <- v;
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
  end;
  !pushes

let closures weight active =
  Closures
    { weight = Option.value weight ~default:default_weight;
      active = Option.value active ~default:(fun _ -> true) }

let run g ?weight ?active ~src () =
  let n = Topo.Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_arc = Array.make n (-1) in
  ignore
    (search g (closures weight active) ~walk:None ~dist ~prev_arc ~done_:(Array.make n false)
       ~heap:(Array.make n 0) ~pos:(Array.make n 0) ~seq:(Array.make n 0)
       ~touched:(Array.make n 0) ~src ~stop:(-1));
  { dist; prev_arc }

let collect_path g prev_arc dst =
  let rec collect acc node =
    let a = prev_arc.(node) in
    if a < 0 then acc else collect (a :: acc) (Topo.Graph.arc g a).Topo.Graph.src
  in
  match collect [] dst with [] -> None | arcs -> Some (Topo.Path.of_arcs g arcs)

let path_to g res dst = if res.dist.(dst) = infinity then None else collect_path g res.prev_arc dst

(* One workspace per domain for the target-stopped searches: the per-node
   arrays grow to the largest graph seen, and the queue's arrays need no
   refill. Outside the first [ws_written] nodes of [ws_touched], every
   cell of [ws_dist], [ws_prev] and [ws_done] holds [infinity], -1 or
   [false], so a call resets only the nodes the previous search queued
   (the only ones a target-stopped search writes). [ws_written] is -1
   while a search runs; one that raised leaves it there, and the next call
   refills the three arrays whole. Domain-local, so parallel callers never
   share one. *)
type workspace = {
  mutable ws_dist : float array;
  mutable ws_prev : int array;
  mutable ws_done : bool array;
  mutable ws_heap : int array;
  mutable ws_pos : int array;
  mutable ws_seq : int array;
  mutable ws_touched : int array;
  mutable ws_written : int;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { ws_dist = [||]; ws_prev = [||]; ws_done = [||]; ws_heap = [||]; ws_pos = [||];
        ws_seq = [||]; ws_touched = [||]; ws_written = 0 })

let workspace n =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.ws_dist < n then begin
    ws.ws_dist <- Array.make n infinity;
    ws.ws_prev <- Array.make n (-1);
    ws.ws_done <- Array.make n false;
    ws.ws_heap <- Array.make n 0;
    ws.ws_pos <- Array.make n 0;
    ws.ws_seq <- Array.make n 0;
    ws.ws_touched <- Array.make n 0
  end
  else if ws.ws_written < 0 then begin
    Array.fill ws.ws_dist 0 (Array.length ws.ws_dist) infinity;
    Array.fill ws.ws_prev 0 (Array.length ws.ws_prev) (-1);
    Array.fill ws.ws_done 0 (Array.length ws.ws_done) false
  end
  else
    for i = 0 to ws.ws_written - 1 do
      let v = ws.ws_touched.(i) in
      ws.ws_dist.(v) <- infinity;
      ws.ws_prev.(v) <- -1;
      ws.ws_done.(v) <- false
    done;
  ws.ws_written <- -1;
  ws

(* Stopping at [dst] is exact: [dst] and every node on its path are settled
   by then, and nothing popped later changes a settled node. *)
let stopped g arm walk ~src ~dst =
  let ws = workspace (Topo.Graph.node_count g) in
  ws.ws_written <-
    search g arm ~walk ~dist:ws.ws_dist ~prev_arc:ws.ws_prev ~done_:ws.ws_done ~heap:ws.ws_heap
      ~pos:ws.ws_pos ~seq:ws.ws_seq ~touched:ws.ws_touched ~src ~stop:dst;
  if ws.ws_dist.(dst) = infinity then None else collect_path g ws.ws_prev dst

let shortest_path g ?weight ?active ~src ~dst () =
  stopped g (closures weight active) None ~src ~dst

let shortest_path_congested ?walk g ~on ~residual ~load ~demand ~src ~dst =
  (match walk with
  | Some w when Array.length w.start <> Topo.Graph.node_count g + 1 ->
      invalid_arg "Dijkstra.shortest_path_congested: walk set of another graph"
  | _ -> ());
  stopped g (Congestion { on; residual; load; demand }) walk ~src ~dst
