(* Tests for the utility substrate: PRNG, heap, statistics, typed units. *)

module Prng = Eutil.Prng
module Heap = Eutil.Heap
module Stats = Eutil.Stats
module U = Eutil.Units
module Memo = Eutil.Memo

(* ------------------------------- units ------------------------------- *)

(* Negative-compilation proof that the phantom dimensions are real: each of
   the lines below is rejected by the type checker with a dimension
   mismatch. Uncomment any one of them to watch the build fail.

     let _bad_sum = U.( +: ) (U.watts 1.0) (U.bps 1.0)
     let _bad_ratio : U.ratio U.q = U.( /: ) (U.watts 1.0) (U.seconds 1.0)
     let _bad_scale = U.( *: ) (U.watts 1.0) (U.watts 1.0)
     let _bad_energy = U.( *@ ) (U.bps 1.0) (U.seconds 1.0)
     let _bad_mixup : U.watts U.q = U.bps 600.0
     let _no_plain_add = U.watts 1.0 +. U.watts 1.0
*)

let magnitude = Alcotest.testable Fmt.float (fun a b -> abs_float (a -. b) <= 1e-9)

let test_units_constructors_reject_nan () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument ("Units." ^ name ^ ": NaN is not a quantity"))
        (fun () -> ignore (f Float.nan)))
    [
      ("watts", fun x -> U.to_float (U.watts x));
      ("bps", fun x -> U.to_float (U.bps x));
      ("ratio", fun x -> U.to_float (U.ratio x));
      ("seconds", fun x -> U.to_float (U.seconds x));
    ];
  (* Infinity is a legal magnitude (breakeven gaps use it). *)
  Alcotest.(check bool) "infinity allowed" true (U.to_float (U.seconds infinity) = infinity);
  (* [unsafe] is the explicit forgery hatch: it must not check. *)
  Alcotest.(check bool) "unsafe NaN" true (Float.is_nan (U.to_float (U.unsafe Float.nan)))

let test_units_prefixes () =
  Alcotest.check magnitude "mbps" 2.0e6 (U.to_float (U.mbps 2.0));
  Alcotest.check magnitude "gbps" 2.5e9 (U.to_float (U.gbps 2.5))

let test_units_additive () =
  Alcotest.check magnitude "+:" 740.0 (U.to_float U.(watts 600.0 +: watts 140.0));
  Alcotest.check magnitude "zero is neutral" 42.0 (U.to_float U.(bps 42.0 +: zero))

let test_units_ratio_algebra () =
  Alcotest.check magnitude "*:" 45.0 (U.to_float U.(ratio 0.9 *: watts 50.0));
  Alcotest.check magnitude "/:" 0.5 (U.to_float U.(bps 5e8 /: bps 1e9));
  Alcotest.check magnitude "percent" 50.0 (U.percent U.(bps 5e8 /: bps 1e9));
  Alcotest.check_raises "zero divisor raises"
    (Invalid_argument "Units./: : zero divisor would mint a NaN/inf ratio")
    (fun () -> ignore U.(watts 1.0 /: watts 0.0));
  (match U.div_opt (U.watts 1.0) (U.watts 0.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "div_opt must refuse a zero divisor");
  (match U.div_opt (U.watts 1.0) (U.watts 4.0) with
  | Some r -> Alcotest.check magnitude "div_opt value" 0.25 (U.to_float r)
  | None -> Alcotest.fail "div_opt lost a live quotient")

let test_units_energy_and_scale () =
  Alcotest.check magnitude "*@ watts x seconds" 1200.0
    (U.to_float U.(watts 600.0 *@ seconds 2.0));
  Alcotest.check magnitude "scale" 120.0 (U.to_float (U.scale 1.2 (U.watts 100.0)));
  Alcotest.check_raises "scale cannot mint NaN"
    (Invalid_argument "Units.scale: NaN is not a quantity")
    (fun () -> ignore (U.scale Float.nan (U.watts 1.0)))

let test_units_comparisons () =
  Alcotest.(check int) "compare_q" (-1) (U.compare_q (U.bps 1.0) (U.bps 2.0));
  Alcotest.check magnitude "min_q" 1.0 (U.to_float (U.min_q (U.bps 1.0) (U.bps 2.0)))

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 16 (fun _ -> Prng.float a) in
  let ys = List.init 16 (fun _ -> Prng.float b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_float_range () =
  let r = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_int_range () =
  let r = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_prng_gaussian_moments () =
  let r = Prng.create 11 in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian r) in
  let m = Stats.mean xs in
  let stdev = sqrt (Stats.mean (Array.map (fun x -> (x -. m) ** 2.0) xs)) in
  Alcotest.(check bool) "mean ~ 0" true (abs_float m < 0.05);
  Alcotest.(check bool) "stdev ~ 1" true (abs_float (stdev -. 1.0) < 0.05)

let test_prng_sample_distinct () =
  let r = Prng.create 3 in
  let s = Prng.sample r 10 20 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort Int.compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

let test_prng_bad_arguments () =
  let r = Prng.create 3 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: the bound must be positive")
    (fun () -> ignore (Prng.int r 0));
  Alcotest.check_raises "int -1" (Invalid_argument "Prng.int: the bound must be positive")
    (fun () -> ignore (Prng.int r (-1)));
  Alcotest.check_raises "sample k > n" (Invalid_argument "Prng.sample: k must lie in [0, n]")
    (fun () -> ignore (Prng.sample r 4 3));
  Alcotest.check_raises "sample k < 0" (Invalid_argument "Prng.sample: k must lie in [0, n]")
    (fun () -> ignore (Prng.sample r (-1) 3));
  (* The bounds themselves are legal, and a refused call draws nothing. *)
  Alcotest.(check int) "sample 0" 0 (Array.length (Prng.sample r 0 3));
  Alcotest.(check int) "sample n" 3 (Array.length (Prng.sample r 3 3));
  Alcotest.(check int) "int 1" 0 (Prng.int r 1);
  let fresh = Prng.create 3 and used = Prng.create 3 in
  (try ignore (Prng.sample used 4 3) with Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "no draw" (Prng.float fresh) (Prng.float used)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 "first";
  Heap.push h 1.0 "second";
  Heap.push h 1.0 "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "fifo on ties" [ "first"; "second"; "third" ] order

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (p, ()) -> p >= prev && drain p
      in
      drain neg_infinity)

(* [Eutil.Heap] pops exactly what the frozen boxed heap pops: the same
   priority bits and values, in the same order, through random interleavings
   of [push], [push_last], [pop], [take], [min_priority] and [is_empty]. The
   reference takes every push as a [push]. [push_last] priorities follow a
   clock that mostly stays put or steps up (runs of non-decreasing
   priorities with ties inside the run) and sometimes dips below it (the
   heap path). Half the [push] priorities are the clock itself, so the run
   and the heap often hold equal priorities and the insertion number
   decides; the rest come mostly from four values. Pushes outnumber
   removals, so the run grows past its first 16 slots after its head has
   moved. The values are push numbers, as ints and as floats (a float value
   array is stored flat, which is a separate code path). *)
let prop_heap_vs_reference =
  let same_run (type a) (value : int -> a) (equal : a -> a -> bool) rng =
    let h = Heap.create () and r = Heap_reference.create () in
    let ties = [| 0.0; 0.5; 1.0; infinity |] in
    let pick xs = xs.(Eutil.Prng.int rng (Array.length xs)) in
    let ok = ref true and pushed = ref 0 and clock = ref 0.0 in
    let same_bits p q = Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q) in
    let push_both push p =
      push h p (value !pushed);
      Heap_reference.push r p (value !pushed);
      incr pushed
    in
    for _ = 1 to 300 do
      let op = Eutil.Prng.int rng 100 in
      if op < 25 then
        push_both Heap.push
          (if Eutil.Prng.float rng < 0.5 then !clock
           else if Eutil.Prng.float rng < 0.85 then pick ties
           else (2.0 *. Eutil.Prng.float rng) -. 0.5)
      else if op < 55 then begin
        if Eutil.Prng.float rng < 0.8 then begin
          clock := !clock +. pick [| 0.0; 0.0; 0.25; 0.5 |];
          push_both Heap.push_last !clock
        end
        else push_both Heap.push_last (!clock -. pick [| 0.25; 1.0 |])
      end
      else if op < 70 then
        ok :=
          !ok
          &&
          match (Heap.pop h, Heap_reference.pop r) with
          | None, None -> true
          | Some (p, x), Some (q, y) -> same_bits p q && equal x y
          | _ -> false
      else if op < 85 then
        ok :=
          !ok
          &&
          match Heap_reference.pop r with
          | Some (_, y) -> equal (Heap.take h) y
          | None -> ( try ignore (Heap.take h); false with Invalid_argument _ -> true)
      else if op < 93 then
        ok :=
          !ok
          &&
          match Heap_reference.pop r with
          | Some (q, y) ->
              same_bits (Heap.min_priority h) q
              && equal (Heap.take h) y
          | None -> ( try ignore (Heap.min_priority h); false with Invalid_argument _ -> true)
      else ok := !ok && Bool.equal (Heap.is_empty h) (Heap_reference.is_empty r)
    done;
    (* Drain what is left. *)
    let rec drain () =
      match (Heap.pop h, Heap_reference.pop r) with
      | None, None -> true
      | Some (p, x), Some (q, y) -> same_bits p q && equal x y && drain ()
      | _ -> false
    in
    !ok && drain ()
  in
  QCheck.Test.make ~name:"heap equals frozen reference" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      same_run Fun.id Int.equal (Eutil.Prng.create seed)
      && same_run float_of_int Float.equal (Eutil.Prng.create seed))

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.percentile xs 100.0)

let test_boxplot () =
  let b = Stats.boxplot (Array.init 101 (fun i -> float_of_int i)) in
  Alcotest.(check (float 1e-9)) "median" 50.0 b.Stats.median;
  Alcotest.(check (float 1e-9)) "q1" 25.0 b.Stats.q1;
  Alcotest.(check (float 1e-9)) "q3" 75.0 b.Stats.q3

let test_ccdf () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  match Stats.ccdf xs [ 25.0 ] with
  | [ (25.0, pct) ] -> Alcotest.(check (float 1e-9)) "half above" 50.0 pct
  | _ -> Alcotest.fail "shape"

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.) 100.)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left min infinity a and hi = Array.fold_left max neg_infinity a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------- pool -------------------------------- *)

module Pool = Eutil.Pool

let test_pool_map_order () =
  (* Results land at the input index whichever domain computes them. *)
  let a = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "jobs 1"
    (Array.map (fun x -> x * x) a)
    (Pool.map_array ~jobs:1 (fun x -> x * x) a);
  Alcotest.(check (array int)) "jobs 4"
    (Array.map (fun x -> x * x) a)
    (Pool.map_array ~jobs:4 (fun x -> x * x) a);
  Alcotest.(check (array int)) "more jobs than items"
    [| 0; 2; 4 |]
    (Pool.map_array ~jobs:16 (fun x -> 2 * x) (Array.init 3 Fun.id))

let test_pool_init () =
  Alcotest.(check (array int)) "init matches Array.init"
    (Array.init 37 (fun i -> 3 * i))
    (Pool.init ~jobs:4 37 (fun i -> 3 * i));
  Alcotest.(check (array int)) "empty" [||] (Pool.init ~jobs:4 0 (fun i -> i))

let test_pool_exceptions () =
  (* The first worker exception is re-raised with its identity intact. *)
  Alcotest.check_raises "invalid_arg propagates" (Invalid_argument "boom") (fun () ->
      ignore (Pool.init ~jobs:4 16 (fun i -> if i = 11 then invalid_arg "boom" else i)));
  Alcotest.check_raises "sequential path too" (Invalid_argument "boom") (fun () ->
      ignore (Pool.init ~jobs:1 16 (fun i -> if i = 11 then invalid_arg "boom" else i)))

let test_pool_default_jobs () =
  Alcotest.(check bool) "at least one domain" true (Pool.default_jobs () >= 1)

let prop_pool_matches_sequential =
  QCheck.Test.make ~name:"pool map matches sequential map for any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (jobs, xs) ->
      let a = Array.of_list xs in
      Pool.map_array ~jobs (fun x -> x + 1) a = Array.map (fun x -> x + 1) a)

(* ------------------------------- memo ------------------------------- *)

let test_memo_hit_miss_counters () =
  let calls = ref 0 in
  let t = Memo.create ~capacity:4 () in
  let f k =
    incr calls;
    k * 10
  in
  Alcotest.(check int) "first call computes" 30 (Memo.find_or_add t 3 ~compute:f);
  Alcotest.(check int) "second call cached" 30 (Memo.find_or_add t 3 ~compute:f);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "a new key misses" 40 (Memo.find_or_add t 4 ~compute:f);
  Alcotest.(check int) "two misses" 2 !calls;
  (* Nothing was evicted under the capacity: both keys still hit. *)
  ignore (Memo.find_or_add t 3 ~compute:f);
  ignore (Memo.find_or_add t 4 ~compute:f);
  Alcotest.(check int) "no eviction" 2 !calls

(* Which keys a cache holds, observed through [find_or_add]: a key whose
   lookup runs [compute] was absent. Each probe re-inserts what it
   misses, so callers probe keys they are done with. *)
let cached t k =
  let hit = ref true in
  ignore (Memo.find_or_add t k ~compute:(fun k -> hit := false; k));
  !hit

let test_memo_lru_eviction () =
  let t = Memo.create ~capacity:2 () in
  let f k = k in
  ignore (Memo.find_or_add t 1 ~compute:f);
  ignore (Memo.find_or_add t 2 ~compute:f);
  (* Touch 1 so 2 is the least recently used entry. *)
  ignore (Memo.find_or_add t 1 ~compute:f);
  ignore (Memo.find_or_add t 3 ~compute:f);
  (* Probe the survivors first: probing 2 re-inserts it and evicts one. *)
  Alcotest.(check bool) "3 present" true (cached t 3);
  Alcotest.(check bool) "1 survives (recently used)" true (cached t 1);
  Alcotest.(check bool) "2 evicted (LRU)" false (cached t 2)

let test_memo_clear_and_errors () =
  let t = Memo.create ~capacity:2 () in
  ignore (Memo.find_or_add t 1 ~compute:(fun k -> k));
  Memo.clear t;
  Alcotest.(check bool) "empty after clear" false (cached t 1);
  Alcotest.check_raises "capacity 0 rejected" (Invalid_argument "Memo.create: capacity >= 1")
    (fun () -> ignore (Memo.create ~capacity:0 ()));
  (* A raising computation is never cached: the next lookup recomputes. *)
  let boom = ref true in
  let f k =
    if !boom then failwith "boom";
    k
  in
  (try ignore (Memo.find_or_add t 9 ~compute:f) with Failure _ -> ());
  boom := false;
  Alcotest.(check int) "recomputed after raise" 9 (Memo.find_or_add t 9 ~compute:f)

let prop_memo_bounded_and_transparent =
  QCheck.Test.make ~name:"memo stays bounded and value-transparent" ~count:100
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (cap, keys) ->
      let t = Memo.create ~capacity:cap () in
      let g k = Memo.find_or_add t k ~compute:(fun k -> (2 * k) + 1) in
      let distinct = List.sort_uniq Int.compare keys in
      List.for_all (fun k -> g k = (2 * k) + 1 && g k = (2 * k) + 1) keys
      (* After one pass over every distinct key, at most [cap] of them
         are still held. *)
      && List.length (List.filter (cached t) distinct) <= cap)

let () =
  Alcotest.run "util"
    [
      ( "units",
        [
          Alcotest.test_case "constructors reject NaN" `Quick test_units_constructors_reject_nan;
          Alcotest.test_case "prefixes" `Quick test_units_prefixes;
          Alcotest.test_case "additive algebra" `Quick test_units_additive;
          Alcotest.test_case "ratio algebra" `Quick test_units_ratio_algebra;
          Alcotest.test_case "energy and scale" `Quick test_units_energy_and_scale;
          Alcotest.test_case "comparisons" `Quick test_units_comparisons;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample_distinct;
          Alcotest.test_case "bad arguments" `Quick test_prng_bad_arguments;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_vs_reference;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "boxplot" `Quick test_boxplot;
          Alcotest.test_case "ccdf" `Quick test_ccdf;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "init" `Quick test_pool_init;
          Alcotest.test_case "exceptions" `Quick test_pool_exceptions;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          QCheck_alcotest.to_alcotest prop_pool_matches_sequential;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_memo_hit_miss_counters;
          Alcotest.test_case "LRU eviction" `Quick test_memo_lru_eviction;
          Alcotest.test_case "clear and errors" `Quick test_memo_clear_and_errors;
          QCheck_alcotest.to_alcotest prop_memo_bounded_and_transparent;
        ] );
    ]
