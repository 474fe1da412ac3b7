(* REsPoNseTE's decision logic as it was before pair handles, frozen as
   the test oracle for [Response.Te]: every probe looks its pair up by
   name, copies the split and recomputes each path's links. It is the old
   [lib/core/te.ml] with its Obs instruments removed (a second
   registration of the [te_*] metric names would fail at start-up) and
   with its config and action types taken from [Response.Te], so both
   controllers take the same inputs and return comparable actions.
   [test/sim_reference.ml] runs on it. Do not optimise it: its only job is
   to be obviously the old behaviour. *)

module U = Eutil.Units

type config = Response.Te.config = {
  probe_period : U.seconds U.q;
  util_threshold : U.ratio U.q;
  low_threshold : U.ratio U.q;
  hysteresis : U.seconds U.q;
  shift_fraction : U.ratio U.q;
  panic_retries : int;
  panic_backoff : U.seconds U.q;
}

type action = Response.Te.action =
  | Wake of int list
  | Set_split of float array
  | Use_fallback
  | Cancel_fallback

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

type pair_state = {
  paths : Topo.Path.t array;
  mutable split : float array;
  mutable below_since : float option;  (* start of the current low-load streak *)
  mutable mode : mode;
}

type t = { cfg : config; g : Topo.Graph.t; pairs : (int * int, pair_state) Hashtbl.t }

let create tables cfg =
  let g = Response.Tables.graph tables in
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let paths = Response.Tables.paths e in
      let split = Array.init (Array.length paths) (fun i -> if i = 0 then 1.0 else 0.0) in
      Hashtbl.replace pairs
        (e.Response.Tables.origin, e.Response.Tables.dest)
        { paths; split; below_since = None; mode = Normal })
    (Response.Tables.entries tables);
  { cfg; g; pairs }

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
      if Array.length split <> Array.length ps.paths then
        invalid_arg "Te.force_split: wrong arity";
      ps.split <- normalise_copy split;
      ps.below_since <- None;
      ps.mode <- Normal

let path_usable g usable p = Array.for_all (fun l -> usable l) (Topo.Path.links g p)

let path_util g util p =
  Array.fold_left (fun acc l -> max acc (util l)) 0.0 (Topo.Path.links g p)

let normalise split =
  let total = Array.fold_left ( +. ) 0.0 split in
  if total > 0.0 then Array.map (fun s -> s /. total) split else split

let sleeping_links g usable split paths =
  (* Links the new split needs that the probe saw carrying nothing: ask the
     network to wake them. The caller knows which are actually asleep; waking
     an active link is a no-op. *)
  let links = ref [] in
  Array.iteri
    (fun i s ->
      if s > 0.0 then
        Array.iter
          (fun l -> if usable l then links := l :: !links)
          (Topo.Path.links g paths.(i)))
    split;
  List.sort_uniq Int.compare !links

let on_probe t ~origin ~dest ~now ~link_util ~link_usable =
  match Hashtbl.find_opt t.pairs (origin, dest) with
  | None -> []
  | Some ps ->
      let g = t.g in
      let cfg = t.cfg in
      (* Probe comparisons happen against raw utilisation and timestamp
         floats; unwrap the typed thresholds once, at the decision boundary. *)
      let util_threshold = U.to_float cfg.util_threshold in
      let low_threshold = U.to_float cfg.low_threshold in
      let hysteresis = U.to_float cfg.hysteresis in
      let shift_fraction = U.to_float cfg.shift_fraction in
      let n = Array.length ps.paths in
      let usable i = path_usable g link_usable ps.paths.(i) in
      let util i = path_util g link_util ps.paths.(i) in
      let any_usable =
        let rec scan i = i < n && (usable i || scan (i + 1)) in
        scan 0
      in
      (* Escalation ladder for a pair with no usable installed path at all:
         bounded wake retries (the links may merely be believed-failed or
         asleep), each retry doubling the backoff, then one Use_fallback
         request asking the caller to route over the shortest usable path
         outside the installed set. Either way the pair's split is zeroed so
         the unserved traffic is measured as loss, not silently dropped. *)
      let panic_step d =
        if d.d_fallback then []
        else if now +. 1e-12 < d.d_next_retry then []
        else if d.d_retries >= cfg.panic_retries then begin
          d.d_fallback <- true;
          [ Use_fallback ]
        end
        else begin
          d.d_retries <- d.d_retries + 1;
          d.d_next_retry <-
            now +. (U.to_float cfg.panic_backoff *. float_of_int (1 lsl d.d_retries));
          let all_links =
            let acc = ref [] in
            Array.iter
              (fun p -> Array.iter (fun l -> acc := l :: !acc) (Topo.Path.links g p))
              ps.paths;
            List.sort_uniq Int.compare !acc
          in
          [ Wake all_links ]
        end
      in
      let enter_panic () =
        let d = { d_since = now; d_retries = 0; d_next_retry = now; d_fallback = false } in
        ps.mode <- Degraded d;
        ps.below_since <- None;
        let had_traffic = Array.exists (fun s -> s > 0.0) ps.split in
        ps.split <- Array.make n 0.0;
        (if had_traffic then [ Set_split (Array.make n 0.0) ] else []) @ panic_step d
      in
      let recover d =
        ps.mode <- Normal;
        ps.below_since <- None;
        let target = ref 0 in
        for i = n - 1 downto 0 do
          if usable i then target := i
        done;
        let split = Array.make n 0.0 in
        split.(!target) <- 1.0;
        ps.split <- split;
        let wakes = sleeping_links g link_usable split ps.paths in
        (if d.d_fallback then [ Cancel_fallback ] else [])
        @ [ Wake wakes; Set_split (Array.copy split) ]
      in
      match (ps.mode, any_usable) with
      | Normal, false -> enter_panic ()
      | Degraded d, false -> panic_step d
      | Degraded d, true -> recover d
      | Normal, true ->
      let split = Array.copy ps.split in
      let changed = ref false in
      (* 1. Failures: traffic on an unusable path moves immediately to the
         first usable path (lowest activation level), in full. *)
      let failed_share = ref 0.0 in
      for i = 0 to n - 1 do
        if split.(i) > 0.0 && not (usable i) then begin
          failed_share := !failed_share +. split.(i);
          split.(i) <- 0.0;
          changed := true
        end
      done;
      if !failed_share > 0.0 then begin
        (* A failover event must not count towards the consolidation
           hysteresis: the low-load streak restarts. *)
        ps.below_since <- None;
        let target = ref None in
        for i = n - 1 downto 0 do
          if usable i then target := Some i
        done;
        match !target with
        | Some i -> split.(i) <- split.(i) +. !failed_share
        | None -> () (* pair disconnected; drop the share *)
      end;
      (* 2. Overload: shift a bounded fraction from the most loaded active
         path to the next usable level. *)
      let active_max_util = ref 0.0 in
      let hottest = ref (-1) in
      for i = 0 to n - 1 do
        if split.(i) > 0.0 then begin
          let u = util i in
          if u > !active_max_util then begin
            active_max_util := u;
            hottest := i
          end
        end
      done;
      if !active_max_util > util_threshold && !hottest >= 0 then begin
        ps.below_since <- None;
        (* Move towards the coolest usable alternative, as long as it is
           meaningfully cooler than the threshold (damping factor 0.85 keeps
           two hot paths from swapping traffic back and forth). *)
        let target = ref None in
        for i = n - 1 downto 0 do
          if i <> !hottest && usable i then begin
            let u = util i in
            if u < util_threshold *. 0.85 then begin
              match !target with
              | Some (_, bu) when bu <= u -> ()
              | _ -> target := Some (i, u)
            end
          end
        done;
        match !target with
        | Some (i, _) ->
            let moved = shift_fraction *. split.(!hottest) in
            split.(!hottest) <- split.(!hottest) -. moved;
            split.(i) <- split.(i) +. moved;
            changed := true
        | None -> ()
      end
      else if !active_max_util < low_threshold && !failed_share = 0.0 then begin
        (* 3. Consolidation: after a sustained low-load period, move the
           highest active level down one step (towards the always-on path),
           but only if the lower path is usable. *)
        match ps.below_since with
        | None -> ps.below_since <- Some now
        | Some since when now -. since >= hysteresis ->
            let top = ref (-1) in
            for i = n - 1 downto 0 do
              if !top < 0 && split.(i) > 0.0 then top := i
            done;
            if !top > 0 then begin
              let lower = ref (-1) in
              for i = !top - 1 downto 0 do
                if !lower < 0 && usable i then lower := i
              done;
              if !lower >= 0 then begin
                let moved = min split.(!top) shift_fraction in
                split.(!top) <- split.(!top) -. moved;
                split.(!lower) <- split.(!lower) +. moved;
                if split.(!top) < 1e-9 then split.(!top) <- 0.0;
                changed := true;
                ps.below_since <- Some now
              end
            end
        | Some _ -> ()
      end
      else ps.below_since <- None;
      if not !changed then []
      else begin
        let split = normalise split in
        ps.split <- split;
        let wakes = sleeping_links g link_usable split ps.paths in
        [ Wake wakes; Set_split (Array.copy split) ]
      end
