(* Concurrency discipline (audited by Check.Share, see DESIGN.md §11):
   every instrument here is reachable from code running inside Eutil.Pool
   worker domains, so each one carries its own synchronisation.

   - Counters are the hot path (event loops increment them per simulator
     event), so they shard into one accumulator cell per domain via
     Domain.DLS: increments touch only the calling domain's cell and the
     cells are summed at read time. Reads that race a foreign domain's
     in-flight increment may miss it — reads are meant to happen at
     fork-join points (after Domain.join), where everything is ordered.
   - Gauges and histograms take a per-instrument mutex; they are orders of
     magnitude colder than counters.
   - Families guard their child table with a mutex (lock order: family
     before registry, registry before instrument; no path reverses it). *)

module Counter = struct
  type t = {
    lock : Mutex.t;  (* guards the [cells] list (not the cell contents) *)
    cells : float Atomic.t list ref;  (* one accumulator per touching domain *)
    key : float Atomic.t Domain.DLS.key;
  }

  let cell c = Domain.DLS.get c.key

  let snapshot_cells c =
    Mutex.lock c.lock;
    let cs = !(c.cells) in
    Mutex.unlock c.lock;
    cs

  let value c = List.fold_left (fun acc cell -> acc +. Atomic.get cell) 0.0 (snapshot_cells c)

  let reset c = List.iter (fun cell -> Atomic.set cell 0.0) (snapshot_cells c)

  let create ?(registry = Registry.default) ?(labels = []) ~help name =
    let lock = Mutex.create () in
    let cells = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let cell = Atomic.make 0.0 in
          Mutex.lock lock;
          cells := cell :: !cells;
          Mutex.unlock lock;
          cell)
    in
    let c = { lock; cells; key } in
    Registry.register registry
      {
        Registry.c_name = name;
        c_help = help;
        c_labels = labels;
        c_kind = Registry.Counter;
        collect = (fun () -> Registry.Counter_v (value c));
        reset = (fun () -> reset c);
      };
    c

  let add c x =
    if Control.enabled () then begin
      if not (x >= 0.0) then invalid_arg "Obs.Metric.Counter.add: negative or NaN increment";
      let cell = cell c in
      (* The owning domain is the only writer, so the CAS succeeds on the
         first try; spelling it as a retry loop keeps the cell correct
         even if a cell ever gains a second writer. *)
      let rec bump () =
        let cur = Atomic.get cell in
        if not (Atomic.compare_and_set cell cur (cur +. x)) then bump ()
      in
      bump ()
    end

  let add_int c n = add c (float_of_int n)
  let incr c = add c 1.0
end

module Gauge = struct
  type t = { lock : Mutex.t; mutable v : float }

  let create ?(registry = Registry.default) ?(labels = []) ~help name =
    let g = { lock = Mutex.create (); v = 0.0 } in
    Registry.register registry
      {
        Registry.c_name = name;
        c_help = help;
        c_labels = labels;
        c_kind = Registry.Gauge;
        collect = (fun () -> Registry.Gauge_v g.v);
        reset =
          (fun () ->
            Mutex.lock g.lock;
            g.v <- 0.0;
            Mutex.unlock g.lock);
      };
    g

  let set g x =
    if Control.enabled () then begin
      if Float.is_nan x then invalid_arg "Obs.Metric.Gauge.set: NaN";
      Mutex.lock g.lock;
      g.v <- x;
      Mutex.unlock g.lock
    end

  let set_int g n = set g (float_of_int n)

  let add g x =
    if Control.enabled () then begin
      if Float.is_nan x then invalid_arg "Obs.Metric.Gauge.add: NaN";
      Mutex.lock g.lock;
      g.v <- g.v +. x;
      Mutex.unlock g.lock
    end

  let value g = g.v
end

module Histogram = struct
  (* Log-linear bucketing: each binary octave [2^(e-1), 2^e) is divided
     into [subs] linear sub-buckets, so the relative width of any bucket is
     at most 1/subs. Bucket ids are integers ordered like the values they
     cover, which makes the quantile walk a sort + prefix sum over the
     occupied buckets only. *)
  let subs = 32
  let subs_f = 32.0

  type t = {
    lock : Mutex.t;  (* guards every mutable field and [buckets] *)
    mutable count : int;
    mutable sum : float;
    mutable minv : float;  (* +inf when empty *)
    mutable maxv : float;  (* -inf when empty *)
    mutable low : int;  (* observations <= 0 *)
    mutable high : int;  (* observations = +inf *)
    buckets : (int, int) Hashtbl.t;
  }

  let locked h f =
    Mutex.lock h.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

  let bucket_of v =
    (* v is finite and > 0. frexp v = (m, e) with v = m * 2^e, m in
       [0.5, 1); the sub-bucket index rescales m linearly to 0..subs-1. *)
    let m, e = Float.frexp v in
    let s = int_of_float ((m -. 0.5) *. 2.0 *. subs_f) in
    (e * subs) + min s (subs - 1)

  let upper_of idx =
    (* Inverse of [bucket_of]: the exclusive upper bound of bucket [idx].
       Integer division truncates towards zero, so floor the octave by hand
       for negative ids. *)
    let e = if idx >= 0 then idx / subs else ((idx + 1) / subs) - 1 in
    let s = idx - (e * subs) in
    Float.ldexp (0.5 +. (float_of_int (s + 1) /. (2.0 *. subs_f))) e

  let sorted_buckets h =
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) h.buckets []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  (* [quantile_u] assumes [h.lock] is held (or the instrument is quiescent). *)
  let quantile_u h q =
    if h.count = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
      if rank <= h.low then (if h.minv < 0.0 then h.minv else 0.0)
      else begin
        let rec walk cum = function
          | [] -> h.maxv (* remaining ranks live in the +inf overflow bin *)
          | (b, c) :: rest ->
              let cum = cum + c in
              if rank <= cum then begin
                let hi = upper_of b in
                let lo = upper_of (b - 1) in
                Float.min h.maxv (Float.max h.minv ((lo +. hi) *. 0.5))
              end
              else walk cum rest
        in
        walk h.low (sorted_buckets h)
      end
    end

  let snapshot_u h =
    let buckets =
      let rec cumulate cum = function
        | [] -> []
        | (b, c) :: rest ->
            let cum = cum + c in
            (upper_of b, cum) :: cumulate cum rest
      in
      cumulate h.low (sorted_buckets h)
    in
    {
      Registry.count = h.count;
      sum = h.sum;
      min = (if h.count = 0 then 0.0 else h.minv);
      max = (if h.count = 0 then 0.0 else h.maxv);
      quantiles = List.map (fun q -> (q, quantile_u h q)) [ 0.5; 0.9; 0.99 ];
      buckets;
    }

  let snapshot h = locked h (fun () -> snapshot_u h)

  let create ?(registry = Registry.default) ?(labels = []) ~help name =
    let h =
      {
        lock = Mutex.create ();
        count = 0;
        sum = 0.0;
        minv = infinity;
        maxv = neg_infinity;
        low = 0;
        high = 0;
        buckets = Hashtbl.create 16;
      }
    in
    let reset () =
      locked h (fun () ->
          h.count <- 0;
          h.sum <- 0.0;
          h.minv <- infinity;
          h.maxv <- neg_infinity;
          h.low <- 0;
          h.high <- 0;
          Hashtbl.reset h.buckets)
    in
    Registry.register registry
      {
        Registry.c_name = name;
        c_help = help;
        c_labels = labels;
        c_kind = Registry.Histogram;
        collect = (fun () -> Registry.Histogram_v (snapshot h));
        reset;
      };
    h

  let observe h x =
    if Control.enabled () then begin
      if Float.is_nan x then invalid_arg "Obs.Metric.Histogram.observe: NaN";
      locked h (fun () ->
          h.count <- h.count + 1;
          h.sum <- h.sum +. x;
          if x < h.minv then h.minv <- x;
          if x > h.maxv then h.maxv <- x;
          if x > 0.0 && x < infinity then begin
            let b = bucket_of x in
            Hashtbl.replace h.buckets b
              (1 + Option.value (Hashtbl.find_opt h.buckets b) ~default:0)
          end
          else if x = infinity then h.high <- h.high + 1
          else h.low <- h.low + 1)
    end

  let time h f =
    if Control.enabled () then begin
      let t0 = Clock.now_s () in
      Fun.protect ~finally:(fun () -> observe h (Clock.now_s () -. t0)) f
    end
    else f ()

  let count h = h.count
  let sum h = h.sum
end

module Family = struct
  type 'a t = {
    lock : Mutex.t;  (* guards [children]; lock order: family before registry *)
    label_names : string list;
    instantiate : (string * string) list -> 'a;
    children : (string list, 'a) Hashtbl.t;
  }

  let make label_names instantiate =
    { lock = Mutex.create (); label_names; instantiate; children = Hashtbl.create 8 }

  let counter ?(registry = Registry.default) ~help ~label_names name =
    make label_names (fun labels -> Counter.create ~registry ~labels ~help name)

  let histogram ?(registry = Registry.default) ~help ~label_names name =
    make label_names (fun labels -> Histogram.create ~registry ~labels ~help name)

  let labels fam values =
    if List.length values <> List.length fam.label_names then
      invalid_arg "Obs.Metric.Family.labels: label arity mismatch";
    Mutex.lock fam.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock fam.lock)
      (fun () ->
        match Hashtbl.find_opt fam.children values with
        | Some x -> x
        | None ->
            let x = fam.instantiate (List.combine fam.label_names values) in
            Hashtbl.replace fam.children values x;
            x)
end
