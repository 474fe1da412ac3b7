module U = Eutil.Units

type config = {
  probe_period : U.seconds U.q;
  util_threshold : U.ratio U.q;
  low_threshold : U.ratio U.q;
  hysteresis : U.seconds U.q;
  shift_fraction : U.ratio U.q;
  panic_retries : int;
  panic_backoff : U.seconds U.q;
}

let default_config =
  {
    probe_period = U.seconds 0.1;
    util_threshold = U.ratio 0.9;
    low_threshold = U.ratio 0.4;
    hysteresis = U.seconds 0.2;
    shift_fraction = U.ratio 0.5;
    panic_retries = 3;
    panic_backoff = U.seconds 0.1;
  }

type action =
  | Wake of int list
  | Set_split of float array
  | Use_fallback
  | Cancel_fallback

let m_probes =
  Obs.Metric.Counter.create ~help:"TE probe reports processed" "te_probes_total"

let m_shifts =
  Obs.Metric.Counter.create ~help:"Probes that changed a traffic split" "te_shifts_total"

let m_failovers =
  Obs.Metric.Counter.create ~help:"Probes that moved traffic off a failed path"
    "te_failovers_total"

let m_overload_shifts =
  Obs.Metric.Counter.create ~help:"Shifts triggered by the overload threshold"
    "te_overload_shifts_total"

let m_consolidations =
  Obs.Metric.Counter.create ~help:"Shifts that consolidated traffic downwards"
    "te_consolidations_total"

let m_wake_requests =
  Obs.Metric.Counter.create ~help:"Links TE asked the network to wake"
    "te_wake_requests_total"

let m_panics =
  Obs.Metric.Counter.create ~help:"Pairs that lost every installed path and entered panic mode"
    "te_panics_total"

let m_panic_wakes =
  Obs.Metric.Counter.create ~help:"Bounded-retry wake rounds issued from panic mode"
    "te_panic_wakes_total"

let m_fallbacks =
  Obs.Metric.Counter.create
    ~help:"Panic escalations to the dynamic shortest-usable-path fallback" "te_fallbacks_total"

let m_recovery_seconds =
  Obs.Metric.Histogram.create
    ~help:"Time from a pair losing every installed path to a probe seeing one usable again"
    "te_recovery_seconds"

(* Escalation state of a pair whose installed paths are all unusable: bounded
   wake retries with exponential backoff, then a dynamic-fallback request.
   [d_since] anchors the recovery-time histogram. *)
type degraded = {
  d_since : float;
  mutable d_retries : int;
  mutable d_next_retry : float;
  mutable d_fallback : bool;
}

type mode = Normal | Degraded of degraded

(* [split] is replaced, never written, once it is published: {!shares}
   hands it out without a copy. *)
type pair_state = {
  links : int array array;  (* per installed path, activation order *)
  mutable split : float array;
  mutable below_since : float option;  (* start of the current low-load streak *)
  mutable mode : mode;
}

type pair = pair_state

(* Probe comparisons happen against raw utilisation and timestamp floats;
   the typed thresholds are unwrapped once, here. *)
type t = {
  cfg : config;
  pairs : (int * int, pair_state) Hashtbl.t;
  util_threshold : float;
  low_threshold : float;
  hysteresis : float;
  shift_fraction : float;
  panic_backoff : float;
}

let create tables cfg =
  let g = Tables.graph tables in
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let paths = Tables.paths e in
      let split = Array.init (Array.length paths) (fun i -> if i = 0 then 1.0 else 0.0) in
      Hashtbl.replace pairs
        (e.Tables.origin, e.Tables.dest)
        { links = Array.map (Topo.Path.links g) paths; split; below_since = None; mode = Normal })
    (Tables.entries tables);
  {
    cfg;
    pairs;
    util_threshold = U.to_float cfg.util_threshold;
    low_threshold = U.to_float cfg.low_threshold;
    hysteresis = U.to_float cfg.hysteresis;
    shift_fraction = U.to_float cfg.shift_fraction;
    panic_backoff = U.to_float cfg.panic_backoff;
  }

let pair t o d =
  match Hashtbl.find_opt t.pairs (o, d) with
  | Some ps -> ps
  | None -> invalid_arg "Te.pair: unknown pair"

let shares ps = ps.split

let split t o d =
  match Hashtbl.find_opt t.pairs (o, d) with
  | Some ps -> Array.copy ps.split
  | None -> invalid_arg "Te.split: unknown pair"

let normalise_copy split =
  let total = Array.fold_left ( +. ) 0.0 split in
  if total > 0.0 then Array.map (fun s -> s /. total) split else Array.copy split

let force_split t o d split =
  match Hashtbl.find_opt t.pairs (o, d) with
  | None -> invalid_arg "Te.force_split: unknown pair"
  | Some ps ->
      if Array.length split <> Array.length ps.links then
        invalid_arg "Te.force_split: wrong arity";
      ps.split <- normalise_copy split;
      ps.below_since <- None;
      ps.mode <- Normal

(* Do [links] from [x] on avoid every known-failed link? *)
let rec avoids known_failed links x =
  x >= Array.length links || ((not known_failed.(links.(x))) && avoids known_failed links (x + 1))

let path_usable ps known_failed i = avoids known_failed ps.links.(i) 0

(* The path's worst link; [max]'s comparison, so ties and NaNs resolve as a
   polymorphic [max] fold would. *)
let path_util ps util i =
  let links = ps.links.(i) in
  let worst = ref 0.0 in
  for x = 0 to Array.length links - 1 do
    let u = util.(links.(x)) in
    if not (!worst >= u) then worst := u
  done;
  !worst

(* The lowest usable path at or above [i]; -1 if there is none. *)
let rec first_usable ps known_failed i =
  if i >= Array.length ps.links then -1
  else if path_usable ps known_failed i then i
  else first_usable ps known_failed (i + 1)

(* Is a share on an unusable path at or above [i]? *)
let rec failed_share_from ps split known_failed i =
  i < Array.length split
  && ((split.(i) > 0.0 && not (path_usable ps known_failed i))
     || failed_share_from ps split known_failed (i + 1))

(* [split] itself if it is already the probe's private copy, else a copy
   of the published split to write into. *)
let writable ps split = if split == ps.split then Array.copy split else split

let normalise split =
  let total = Array.fold_left ( +. ) 0.0 split in
  if total > 0.0 then Array.map (fun s -> s /. total) split else split

let sleeping_links ps known_failed split =
  (* Links the new split needs that the probe saw carrying nothing: ask the
     network to wake them. The caller knows which are actually asleep; waking
     an active link is a no-op. *)
  let links = ref [] in
  Array.iteri
    (fun i s ->
      if s > 0.0 then
        Array.iter (fun l -> if not known_failed.(l) then links := l :: !links) ps.links.(i))
    split;
  List.sort_uniq Int.compare !links

(* Escalation ladder for a pair with no usable installed path at all:
   bounded wake retries (the links may merely be believed-failed or
   asleep), each retry doubling the backoff, then one Use_fallback request
   asking the caller to route over the shortest usable path outside the
   installed set. Either way the pair's split is zeroed so the unserved
   traffic is measured as loss, not silently dropped. *)
let panic_step t ps d now =
  if d.d_fallback then []
  else if now +. 1e-12 < d.d_next_retry then []
  else if d.d_retries >= t.cfg.panic_retries then begin
    d.d_fallback <- true;
    Obs.Metric.Counter.incr m_fallbacks;
    [ Use_fallback ]
  end
  else begin
    d.d_retries <- d.d_retries + 1;
    d.d_next_retry <- now +. (t.panic_backoff *. float_of_int (1 lsl d.d_retries));
    Obs.Metric.Counter.incr m_panic_wakes;
    let all_links =
      let acc = ref [] in
      Array.iter (Array.iter (fun l -> acc := l :: !acc)) ps.links;
      List.sort_uniq Int.compare !acc
    in
    Obs.Metric.Counter.add_int m_wake_requests (List.length all_links);
    [ Wake all_links ]
  end

let enter_panic t ps now =
  let n = Array.length ps.links in
  let d = { d_since = now; d_retries = 0; d_next_retry = now; d_fallback = false } in
  ps.mode <- Degraded d;
  ps.below_since <- None;
  Obs.Metric.Counter.incr m_panics;
  let had_traffic = Array.exists (fun s -> s > 0.0) ps.split in
  ps.split <- Array.make n 0.0;
  let actions = panic_step t ps d now in
  if had_traffic then Set_split (Array.make n 0.0) :: actions else actions

(* The first probe that sees a usable installed path again puts the whole
   demand on the lowest one, [first]. *)
let recover ps d ~now ~known_failed ~first =
  Obs.Metric.Histogram.observe m_recovery_seconds (now -. d.d_since);
  ps.mode <- Normal;
  ps.below_since <- None;
  let split = Array.make (Array.length ps.links) 0.0 in
  split.(first) <- 1.0;
  ps.split <- split;
  let wakes = sleeping_links ps known_failed split in
  Obs.Metric.Counter.incr m_shifts;
  Obs.Metric.Counter.add_int m_wake_requests (List.length wakes);
  let actions = [ Wake wakes; Set_split (Array.copy split) ] in
  if d.d_fallback then Cancel_fallback :: actions else actions

(* The overload target: the coolest usable path other than [hottest] that
   is meaningfully cooler than the threshold (damping factor 0.85 keeps two
   hot paths from swapping traffic back and forth), the highest level on a
   tie; -1 if there is none. *)
let overload_target t ps ~util ~known_failed hottest =
  let best = ref (-1) and best_util = ref 0.0 in
  for i = Array.length ps.links - 1 downto 0 do
    if i <> hottest && path_usable ps known_failed i then begin
      let u = path_util ps util i in
      if u < t.util_threshold *. 0.85 && (!best < 0 || not (!best_util <= u)) then begin
        best := i;
        best_util := u
      end
    end
  done;
  !best

(* 3. Consolidation: after a sustained low-load period, move the highest
   active level down one step (towards the always-on path), but only if
   the lower path is usable. *)
let consolidate t ps split ~now ~known_failed =
  match ps.below_since with
  | None ->
      ps.below_since <- Some now;
      split
  | Some since when now -. since >= t.hysteresis ->
      let top = ref (-1) in
      for i = Array.length split - 1 downto 0 do
        if !top < 0 && split.(i) > 0.0 then top := i
      done;
      let lower = ref (-1) in
      if !top > 0 then
        for i = !top - 1 downto 0 do
          if !lower < 0 && path_usable ps known_failed i then lower := i
        done;
      if !lower < 0 then split
      else begin
        let top = !top and lower = !lower in
        let split = writable ps split in
        let moved = if split.(top) <= t.shift_fraction then split.(top) else t.shift_fraction in
        split.(top) <- split.(top) -. moved;
        split.(lower) <- split.(lower) +. moved;
        if split.(top) < 1e-9 then split.(top) <- 0.0;
        Obs.Metric.Counter.incr m_consolidations;
        ps.below_since <- Some now;
        split
      end
  | Some _ -> split

(* A probe of a pair in normal mode with at least one usable installed
   path, the lowest being [first]. The published split is read in place and
   copied only when a step writes to it, so the probe changed the split
   exactly when the working split is no longer the published one. *)
let normal_probe t ps ~now ~util ~known_failed ~first =
  let n = Array.length ps.links in
  let split =
    if failed_share_from ps ps.split known_failed 0 then Array.copy ps.split else ps.split
  in
  (* 1. Failures: traffic on an unusable path moves immediately to the
     first usable path (lowest activation level), in full. *)
  let failed_share = ref 0.0 in
  if split != ps.split then begin
    for i = 0 to n - 1 do
      if split.(i) > 0.0 && not (path_usable ps known_failed i) then begin
        failed_share := !failed_share +. split.(i);
        split.(i) <- 0.0
      end
    done;
    Obs.Metric.Counter.incr m_failovers;
    (* A failover event must not count towards the consolidation
       hysteresis: the low-load streak restarts. *)
    ps.below_since <- None;
    split.(first) <- split.(first) +. !failed_share
  end;
  (* 2. Overload: shift a bounded fraction from the most loaded active path
     to the next usable level. *)
  let active_max_util = ref 0.0 in
  let hottest = ref (-1) in
  for i = 0 to n - 1 do
    if split.(i) > 0.0 then begin
      let u = path_util ps util i in
      if u > !active_max_util then begin
        active_max_util := u;
        hottest := i
      end
    end
  done;
  let split =
    if !active_max_util > t.util_threshold && !hottest >= 0 then begin
      ps.below_since <- None;
      let hottest = !hottest in
      let target = overload_target t ps ~util ~known_failed hottest in
      if target < 0 then split
      else begin
        Obs.Metric.Counter.incr m_overload_shifts;
        let split = writable ps split in
        let moved = t.shift_fraction *. split.(hottest) in
        split.(hottest) <- split.(hottest) -. moved;
        split.(target) <- split.(target) +. moved;
        split
      end
    end
    else if !active_max_util < t.low_threshold && !failed_share = 0.0 then
      consolidate t ps split ~now ~known_failed
    else begin
      ps.below_since <- None;
      split
    end
  in
  if split == ps.split then []
  else begin
    let split = normalise split in
    ps.split <- split;
    let wakes = sleeping_links ps known_failed split in
    Obs.Metric.Counter.incr m_shifts;
    Obs.Metric.Counter.add_int m_wake_requests (List.length wakes);
    [ Wake wakes; Set_split (Array.copy split) ]
  end

let probe t ps ~now ~util ~known_failed =
  Obs.Metric.Counter.incr m_probes;
  let first = first_usable ps known_failed 0 in
  match ps.mode with
  | Normal when first < 0 -> enter_panic t ps now
  | Normal -> normal_probe t ps ~now ~util ~known_failed ~first
  | Degraded d when first < 0 -> panic_step t ps d now
  | Degraded d -> recover ps d ~now ~known_failed ~first
