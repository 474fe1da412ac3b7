(* Clock, bench spans, the round loop and registry read-back shared by the
   workloads.

   Every duration comes from bechamel's CLOCK_MONOTONIC reading in
   nanoseconds. Bench spans wrap the calls the benchmark makes into each
   layer and are recorded only on traced rounds; a span's self time is its
   duration minus the durations of its child spans. *)

type ctx = {
  seed : int;
  seconds : float;  (** round time to spend; at least one round runs *)
  smoke : bool;  (** tiny sizes, for the @runtest smoke rule *)
  trace : bool;  (** alternate untraced and traced rounds *)
}

let now_ns () = Monotonic_clock.now ()

let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* ------------------------------ spans ------------------------------ *)

type span = { name : string; dur_s : float; self_s : float }

let tracing = ref false

(* Completed spans, newest first, and for each open span the summed
   duration of its completed children. *)
let finished : span list ref = ref []
let open_children : float ref list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let children = ref 0.0 in
    open_children := children :: !open_children;
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let dur_s = since_s t0 in
        (match !open_children with
        | _ :: (parent :: _ as rest) ->
            parent := !parent +. dur_s;
            open_children := rest
        | [ _ ] | [] -> open_children := []);
        finished := { name; dur_s; self_s = dur_s -. !children } :: !finished)
  end

let span_durations name =
  List.filter_map (fun s -> if s.name = name then Some s.dur_s else None) !finished

(* ---------------------------- statistics --------------------------- *)

let quantile xs q =
  match xs with [] -> 0.0 | _ -> Eutil.Stats.percentile (Array.of_list xs) (100.0 *. q)

let median xs = quantile xs 0.5

let ratio num den = if den > 0.0 then num /. den else 0.0

(* ------------------------------ set-up ----------------------------- *)

(* Runs [setup] [reps] times and keeps the last environment; set-up time
   is the median, so one slow start does not move it. [release] frees
   every environment but the kept one (a server's domains and sockets). *)
let setups ?(release = ignore) ~reps setup =
  let rec go k times =
    let env, dt = timed setup in
    if k >= reps then (env, median (dt :: times))
    else begin
      release env;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []

(* ------------------------------ rounds ----------------------------- *)

type round = { units : float;  (** work done: intervals, simulated s, requests *) seconds : float }

type rounds = {
  untraced : round list;
  traced : round list;
  live_units : float;  (** units done while Obs was recording *)
  traced_minor_words : float;
}

(* Runs [f k] for k = 0, 1, ... until [ctx.seconds] of round time are
   spent (at least one round of each kind). [obs_on] is whether Obs
   records outside the traced rounds, as respctld runs it. In a traced run
   every odd round is traced: bench spans and Obs recording on. The
   difference between the two kinds of round is the tracing overhead. *)
let run_rounds ctx ~obs_on f =
  let min_rounds = if ctx.trace then 2 else 1 in
  let rec go k spent untraced traced live minor =
    if k >= min_rounds && spent >= ctx.seconds then
      { untraced = List.rev untraced; traced = List.rev traced; live_units = live;
        traced_minor_words = minor }
    else begin
      let is_traced = ctx.trace && k mod 2 = 1 in
      tracing := is_traced;
      Obs.set_enabled (obs_on || is_traced);
      let w0 = (Gc.quick_stat ()).Gc.minor_words in
      let r = f k in
      let dw = (Gc.quick_stat ()).Gc.minor_words -. w0 in
      tracing := false;
      let live = if obs_on || is_traced then live +. r.units else live in
      if is_traced then go (k + 1) (spent +. r.seconds) untraced (r :: traced) live (minor +. dw)
      else go (k + 1) (spent +. r.seconds) (r :: untraced) traced live minor
    end
  in
  go 0 0.0 [] [] 0.0 0.0

let no_rounds = { untraced = []; traced = []; live_units = 0.0; traced_minor_words = 0.0 }

let total_units rs = List.fold_left (fun acc r -> acc +. r.units) 0.0 rs

let total_seconds rs = List.fold_left (fun acc r -> acc +. r.seconds) 0.0 rs

(* Work per second of round time. *)
let rate rs = ratio (total_units rs) (total_seconds rs)

(* Median over rounds of the time one unit of work took. *)
let cost_per_unit rs = median (List.map (fun r -> ratio r.seconds r.units) rs)

let overhead_ratio rs = ratio (cost_per_unit rs.traced) (cost_per_unit rs.untraced)

(* ------------------------ registry read-back ----------------------- *)

let samples () = Obs.Registry.snapshot Obs.Registry.default

(* Sum of a counter over all its label sets. *)
let counter name =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) ->
      match s.value with
      | Obs.Registry.Counter_v v when s.name = name -> acc +. v
      | _ -> acc)
    0.0 (samples ())

let labelled_counter name labels =
  Option.value ~default:0.0 (Obs.Registry.value Obs.Registry.default ~labels name)

let histogram ?(labels = []) name =
  List.find_map
    (fun (s : Obs.Registry.sample) ->
      match s.value with
      | Obs.Registry.Histogram_v h when s.name = name && s.labels = labels -> Some h
      | _ -> None)
    (samples ())

let histogram_quantile ?labels name q =
  match histogram ?labels name with
  | Some h -> Option.value ~default:0.0 (List.assoc_opt q h.Obs.Registry.quantiles)
  | None -> 0.0

(* Mean duration of a library span, from the obs_span_seconds family. *)
let obs_span_mean_s name =
  match histogram ~labels:[ ("span", name) ] "obs_span_seconds" with
  | Some h -> ratio h.Obs.Registry.sum (float_of_int h.Obs.Registry.count)
  | None -> 0.0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------ checks ----------------------------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  first_digests : (int, string) Hashtbl.t;
}

let checks () = { attempted = 0; failed = 0; problems = []; first_digests = Hashtbl.create 16 }

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      c.failed <- c.failed + 1;
      c.problems <- msg :: c.problems)
    fmt

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Round [k] repeats the inputs of round [k mod period], so its output
   digest must equal that round's. True on the first pass, when the
   caller runs the full output checks. *)
let first_pass c ~period k digest =
  let slot = k mod period in
  match Hashtbl.find_opt c.first_digests slot with
  | None ->
      Hashtbl.replace c.first_digests slot digest;
      true
  | Some d ->
      if not (String.equal d digest) then fail c "round %d output differs from round %d" k slot;
      false

let default_seed = 1

(* At the default seed the digest of a workload's reference output (its
   first round, or a post-run sweep) is pinned in Digests, so a behaviour
   change fails the run instead of looking faster. *)
let committed c ctx ~workload got =
  if ctx.seed = default_seed then begin
    let size = if ctx.smoke then "smoke" else "full" in
    match List.assoc_opt (workload, size) Digests.committed with
    | Some want when not (String.equal got want) ->
        fail c "%s %s digest %s differs from the committed %s" workload size got want
    | Some _ -> ()
    | None -> fail c "%s %s: no committed digest (this run: %s)" workload size got
  end

let first_round_digest c = Option.value ~default:"" (Hashtbl.find_opt c.first_digests 0)
