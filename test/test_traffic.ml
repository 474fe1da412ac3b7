(* Tests for traffic matrices, the gravity model, sine-wave demands, traces
   and the synthetic trace generators. *)

module G = Topo.Graph
module Matrix = Traffic.Matrix

(* Flow count and equality, read off the public flow list. *)
let flow_count m = List.length (Matrix.flows m)
let same a b = Matrix.size a = Matrix.size b && Matrix.flows a = Matrix.flows b

let test_matrix_basics () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.0;
  Matrix.add_to m 0 1 2.0;
  Matrix.set m 2 0 1.0;
  Alcotest.(check (float 0.0)) "get" 7.0 (Matrix.get m 0 1);
  Alcotest.(check (float 0.0)) "total" 8.0 (Matrix.total m);
  Alcotest.(check int) "flows" 2 (flow_count m);
  let s = Matrix.scale m 2.0 in
  Alcotest.(check (float 0.0)) "scale" 14.0 (Matrix.get s 0 1);
  Alcotest.(check (float 0.0)) "original untouched" 7.0 (Matrix.get m 0 1)

let test_matrix_rejects_diagonal () =
  let m = Matrix.create 2 in
  Alcotest.check_raises "diagonal" (Invalid_argument "Matrix.set: diagonal demand") (fun () ->
      Matrix.set m 1 1 3.0)

let test_flows_desc () =
  let m = Matrix.of_flows 3 [ (0, 1, 1.0); (1, 2, 5.0); (2, 0, 3.0) ] in
  match Matrix.flows_desc m with
  | [ (1, 2, v1); (2, 0, v2); (0, 1, v3) ] ->
      Alcotest.(check (float 0.0)) "first" 5.0 v1;
      Alcotest.(check (float 0.0)) "second" 3.0 v2;
      Alcotest.(check (float 0.0)) "third" 1.0 v3
  | _ -> Alcotest.fail "order"


let test_matrix_sparse_representation () =
  (* Above the dense threshold the matrix is hashtable-backed; semantics must
     be identical to the dense case. *)
  let n = 700 in
  let m = Matrix.create n in
  Matrix.set m 0 650 5.0;
  Matrix.set m 649 1 3.0;
  Matrix.add_to m 0 650 1.0;
  Alcotest.(check (float 0.0)) "get" 6.0 (Matrix.get m 0 650);
  Alcotest.(check (float 0.0)) "default zero" 0.0 (Matrix.get m 5 6);
  Alcotest.(check (float 0.0)) "total" 9.0 (Matrix.total m);
  Alcotest.(check int) "flows" 2 (flow_count m);
  (* Deterministic (o, d) iteration order. *)
  Alcotest.(check bool) "ordered flows" true
    (Matrix.flows m = [ (0, 650, 6.0); (649, 1, 3.0) ]);
  (* set to zero removes the entry. *)
  Matrix.set m 0 650 0.0;
  Alcotest.(check int) "removed" 1 (flow_count m);
  (* scale / copy / equal. *)
  let s = Matrix.scale m 2.0 in
  Alcotest.(check (float 0.0)) "scaled" 6.0 (Matrix.get s 649 1);
  let c = Matrix.copy m in
  Alcotest.(check bool) "copy equal" true (same m c);
  Matrix.set c 1 2 1.0;
  Alcotest.(check bool) "copy independent" false (same m c)

(* Sparse iteration and folds must not depend on hashtable insertion
   order: the same flow set inserted forwards and backwards produces the
   same flow list (sorted by (o, d)), the same float totals (folds
   reassociate), and the same scaled matrix. *)
let test_matrix_sparse_order_independent () =
  let n = 200 in
  let flow i = (i, ((i * 7) mod (n - 1)) + 1, 1.0 +. (0.125 *. float_of_int i)) in
  let flows =
    List.init 150 (fun i -> flow (i mod (n - 1)))
    |> List.filter (fun (o, d, _) -> o <> d)
  in
  let fwd = Matrix.of_flows n flows and rev = Matrix.of_flows n (List.rev flows) in
  Alcotest.(check bool) "flow lists identical" true (Matrix.flows fwd = Matrix.flows rev);
  Alcotest.(check (float 0.0)) "totals bit-identical" (Matrix.total fwd) (Matrix.total rev);
  Alcotest.(check bool) "scaled matrices equal" true
    (Matrix.flows (Matrix.scale fwd 0.3) = Matrix.flows (Matrix.scale rev 0.3));
  let pairs = Matrix.pairs fwd in
  Alcotest.(check bool) "iteration is (o, d)-sorted" true
    (List.sort (Eutil.Order.pair Int.compare Int.compare) pairs = pairs)

let prop_matrix_dense_sparse_agree =
  QCheck.Test.make ~name:"dense and sparse matrices agree" ~count:100
    QCheck.(small_list (triple (int_range 0 9) (int_range 0 9) (float_bound_exclusive 100.0)))
    (fun ops ->
      let ops = List.filter (fun (o, d, _) -> o <> d) ops in
      (* Same flows into a dense (n=10) and a logically-identical sparse
         (n=700, nodes mapped 1:1 into the low indices) matrix. *)
      let dense = Matrix.create 10 in
      let sparse = Matrix.create 700 in
      List.iter
        (fun (o, d, v) ->
          Matrix.add_to dense o d v;
          Matrix.add_to sparse o d v)
        ops;
      abs_float (Matrix.total dense -. Matrix.total sparse) < 1e-9
      && flow_count dense = flow_count sparse
      && List.map (fun (o, d, v) -> (o, d, v)) (Matrix.flows dense) = Matrix.flows sparse)

let test_gravity_total_and_proportionality () =
  let g = Topo.Geant.make () in
  let m = Traffic.Gravity.make g ~total:(Eutil.Units.bps 100.0) () in
  Alcotest.(check (float 1e-6)) "normalised" 100.0 (Matrix.total m);
  (* DE (hub, many 10G links) originates more than CY (two 622M links). *)
  let w = Traffic.Gravity.weights g in
  let de = G.node_of_name g "DE" and cy = G.node_of_name g "CY" in
  Alcotest.(check bool) "weights ordered" true (w.(de) > w.(cy));
  let out n = Array.fold_left ( +. ) 0.0 (Array.init (Matrix.size m) (fun d -> Matrix.get m n d)) in
  Alcotest.(check bool) "hub sends more" true (out de > out cy)

let test_gravity_pairs_subset () =
  let g = Topo.Geant.make () in
  let pairs = Traffic.Gravity.random_pairs g ~seed:1 ~fraction:0.2 in
  let m = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.bps 10.0) () in
  Alcotest.(check int) "only selected pairs" (List.length pairs) (flow_count m);
  Alcotest.(check (float 1e-9)) "normalised" 10.0 (Matrix.total m)

let test_random_pairs_deterministic () =
  let g = Topo.Geant.make () in
  let a = Traffic.Gravity.random_pairs g ~seed:5 ~fraction:0.3 in
  let b = Traffic.Gravity.random_pairs g ~seed:5 ~fraction:0.3 in
  Alcotest.(check bool) "same subset" true (a = b);
  Alcotest.(check bool) "nonempty" true (a <> [])


let test_random_node_pairs () =
  let g = Topo.Geant.make () in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:3 ~fraction:0.5 in
  (* Deterministic. *)
  Alcotest.(check bool) "deterministic" true
    (pairs = Traffic.Gravity.random_node_pairs g ~seed:3 ~fraction:0.5);
  (* All pairs among a node subset: the set of endpoints is closed — every
     origin also appears as a destination and vice versa. *)
  let origins = List.map fst pairs |> List.sort_uniq Int.compare in
  let dests = List.map snd pairs |> List.sort_uniq Int.compare in
  Alcotest.(check (list int)) "closed endpoint set" origins dests;
  let n = List.length origins in
  Alcotest.(check int) "complete digraph on the subset" (n * (n - 1)) (List.length pairs);
  (* Roughly half of 23 nodes. *)
  Alcotest.(check bool) "subset size" true (n >= 9 && n <= 13)

let test_random_node_pairs_minimum () =
  let g = Fixtures.triangle () in
  let pairs = Traffic.Gravity.random_node_pairs g ~seed:1 ~fraction:0.01 in
  (* At least two nodes are always kept. *)
  Alcotest.(check int) "one pair each way" 2 (List.length pairs)

let test_sine_wave () =
  let module U = Eutil.Units in
  let demand_at t =
    U.to_float (Traffic.Sine.demand_at ~peak:(U.bps 10.0) ~period:(U.seconds 100.0) t)
  in
  Alcotest.(check (float 1e-9)) "zero at t=0" 0.0 (demand_at 0.0);
  Alcotest.(check (float 1e-9)) "peak at half period" 10.0 (demand_at 50.0);
  Alcotest.(check (float 1e-9)) "back to zero" 0.0 (demand_at 100.0)

let test_sine_fattree_locality () =
  let ft = Topo.Fattree.make 4 in
  let near = Traffic.Sine.fattree_pairs ft Traffic.Sine.Near in
  let far = Traffic.Sine.fattree_pairs ft Traffic.Sine.Far in
  Alcotest.(check int) "one flow per host (near)" 16 (List.length near);
  Alcotest.(check int) "one flow per host (far)" 16 (List.length far);
  let g = ft.Topo.Fattree.graph in
  let pod_of name = String.get name 1 in
  (* Near: both endpoints in the same pod (names h<pod>_<edge>_<i>). *)
  List.iter
    (fun (o, d) ->
      Alcotest.(check char) "same pod" (pod_of (G.name g o)) (pod_of (G.name g d)))
    near;
  (* Far: endpoints in different pods. *)
  List.iter
    (fun (o, d) ->
      Alcotest.(check bool) "different pod" true (pod_of (G.name g o) <> pod_of (G.name g d)))
    far

let test_trace_ops () =
  let mk v =
    let m = Matrix.create 2 in
    Matrix.set m 0 1 v;
    m
  in
  let tr = Traffic.Trace.make ~interval:300.0 [| mk 1.0; mk 2.0; mk 3.0; mk 4.0 |] in
  Alcotest.(check int) "length" 4 (Traffic.Trace.length tr);
  Alcotest.(check (float 0.0)) "time" 600.0 (Traffic.Trace.time_of tr 2);
  Alcotest.(check (float 0.0)) "mean" 2.5 (Traffic.Trace.mean_total tr);
  let pk = Traffic.Trace.peak tr in
  Alcotest.(check (float 0.0)) "peak envelope" 4.0 (Matrix.get pk 0 1)

let test_geant_like_deterministic () =
  let g = Topo.Geant.make () in
  let a = Traffic.Synth.geant_like g ~days:1 () in
  let b = Traffic.Synth.geant_like g ~days:1 () in
  Alcotest.(check int) "96 intervals/day" 96 (Traffic.Trace.length a);
  let identical = ref true in
  for i = 0 to Traffic.Trace.length a - 1 do
    if not (same (Traffic.Trace.at a i) (Traffic.Trace.at b i)) then identical := false
  done;
  Alcotest.(check bool) "deterministic" true !identical;
  let c = Traffic.Synth.geant_like g ~days:1 ~seed:99 () in
  Alcotest.(check bool) "seed matters" false (same (Traffic.Trace.at a 0) (Traffic.Trace.at c 0))

let test_geant_like_diurnal () =
  let g = Topo.Geant.make () in
  let tr = Traffic.Synth.geant_like g ~days:2 ~noise_sigma:0.05 () in
  (* Afternoon volume should exceed the night trough on average. *)
  let total_at h = Matrix.total (Traffic.Trace.at tr (h * 4)) in
  let night = (total_at 3 +. total_at 4 +. total_at 27 +. total_at 28) /. 4.0 in
  let day = (total_at 14 +. total_at 15 +. total_at 38 +. total_at 39) /. 4.0 in
  Alcotest.(check bool) "diurnal" true (day > 1.3 *. night)

let test_google_like_change_statistic () =
  (* The headline calibration: roughly half of the 5-min intervals change by
     at least 20 % (Figure 1a). Accept a generous band. *)
  let pairs = List.init 20 (fun i -> (i, (i + 7) mod 21)) in
  let tr = Traffic.Synth.google_dc_like ~n:21 ~pairs ~days:2 () in
  let f = Traffic.Tstats.fraction_changing_by tr 20.0 in
  Alcotest.(check bool) (Printf.sprintf "fraction %.2f in [0.3, 0.7]" f) true (f > 0.3 && f < 0.7)

let test_change_ccdf_monotone () =
  let pairs = [ (0, 1); (1, 2); (2, 0) ] in
  let tr = Traffic.Synth.google_dc_like ~n:3 ~pairs ~days:1 () in
  let ccdf = Traffic.Tstats.change_ccdf tr ~thresholds:[ 0.0; 20.0; 40.0; 80.0 ] in
  let values = List.map snd ccdf in
  Alcotest.(check bool) "nonincreasing" true (List.sort (Eutil.Order.desc Float.compare) values = values);
  Alcotest.(check (float 1e-9)) "starts at 100" 100.0 (List.hd values)

(* Property: gravity demands are symmetric in proportions — d(o,d)*w(x)*w(y)
   = d(x,y)*w(o)*w(d) for pairs present in the full matrix. *)
let prop_gravity_proportions =
  QCheck.Test.make ~name:"gravity proportional to weight products" ~count:30
    QCheck.(pair (int_range 0 22) (int_range 0 22))
    (fun (o, d) ->
      QCheck.assume (o <> d);
      let g = Topo.Geant.make () in
      let w = Traffic.Gravity.weights g in
      let m = Traffic.Gravity.make g ~total:(Eutil.Units.bps 1.0) () in
      let x = 5 and y = 16 in
      QCheck.assume (x <> o || y <> d);
      QCheck.assume (x <> y);
      let lhs = Matrix.get m o d *. w.(x) *. w.(y) in
      let rhs = Matrix.get m x y *. w.(o) *. w.(d) in
      abs_float (lhs -. rhs) <= 1e-9 *. max (abs_float lhs) (abs_float rhs))

(* Property: every demand a generator emits is finite on generated
   topologies — NaN/inf cannot leak out of the gravity model or the
   synthetic trace generator whatever the topology size or seed. *)
let matrix_finite m = Matrix.fold_values m ~init:true ~f:(fun ok v -> ok && Float.is_finite v)

let prop_generated_demands_finite =
  QCheck.Test.make ~name:"generated demands always finite" ~count:30
    QCheck.(pair (int_range 2 16) (int_range 0 1000))
    (fun (nodes, seed) ->
      let g = Fixtures.line nodes in
      let gravity = Traffic.Gravity.make g ~total:(Eutil.Units.gbps 1.0) () in
      let trace = Traffic.Synth.geant_like g ~seed ~days:1 () in
      let ok = ref (matrix_finite gravity) in
      for i = 0 to Traffic.Trace.length trace - 1 do
        if not (matrix_finite (Traffic.Trace.at trace i)) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "traffic"
    [
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_basics;
          Alcotest.test_case "rejects diagonal" `Quick test_matrix_rejects_diagonal;
          Alcotest.test_case "flows desc" `Quick test_flows_desc;
          Alcotest.test_case "sparse representation" `Quick test_matrix_sparse_representation;
          Alcotest.test_case "sparse order independence" `Quick
            test_matrix_sparse_order_independent;
          QCheck_alcotest.to_alcotest prop_matrix_dense_sparse_agree;
        ] );
      ( "gravity",
        [
          Alcotest.test_case "total and proportionality" `Quick test_gravity_total_and_proportionality;
          Alcotest.test_case "pair subsets" `Quick test_gravity_pairs_subset;
          Alcotest.test_case "random pairs deterministic" `Quick test_random_pairs_deterministic;
          Alcotest.test_case "random node pairs" `Quick test_random_node_pairs;
          Alcotest.test_case "random node pairs minimum" `Quick test_random_node_pairs_minimum;
          QCheck_alcotest.to_alcotest prop_gravity_proportions;
        ] );
      ( "sine",
        [
          Alcotest.test_case "waveform" `Quick test_sine_wave;
          Alcotest.test_case "fat-tree locality" `Quick test_sine_fattree_locality;
        ] );
      ( "trace",
        [ Alcotest.test_case "operations" `Quick test_trace_ops ] );
      ( "synth",
        [
          Alcotest.test_case "geant-like deterministic" `Quick test_geant_like_deterministic;
          Alcotest.test_case "geant-like diurnal" `Quick test_geant_like_diurnal;
          Alcotest.test_case "google-like change statistic" `Quick test_google_like_change_statistic;
          Alcotest.test_case "change ccdf monotone" `Quick test_change_ccdf_monotone;
          QCheck_alcotest.to_alcotest prop_generated_demands_finite;
        ] );
    ]
