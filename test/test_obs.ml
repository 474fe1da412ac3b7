(* Tests for the observability subsystem: metric semantics, histogram
   quantile accuracy against a sorted-array oracle, exporter output,
   JSON validation and the span trace tree. *)

module M = Obs.Metric
module R = Obs.Registry

(* Metrics only mutate while observability is enabled; every test that
   records restores the switch (and any injected clock) on exit. *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* The stock clock source, reinstalled after a test injects its own. *)
let reset_clock () = Obs.Clock.set_source Unix.gettimeofday

let with_obs f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      reset_clock ())
    f

(* ----------------------------- instruments ---------------------------- *)

let test_counter_semantics () =
  with_obs (fun () ->
      let reg = R.create () in
      let c = M.Counter.create ~registry:reg ~help:"h" "c_total" in
      M.Counter.incr c;
      M.Counter.add c 2.5;
      M.Counter.add_int c 3;
      Alcotest.(check (float 1e-9)) "accumulates" 6.5 (M.Counter.value c);
      Alcotest.check_raises "negative increment rejected"
        (Invalid_argument "Obs.Metric.Counter.add: negative or NaN increment") (fun () ->
          M.Counter.add c (-1.0));
      Obs.set_enabled false;
      M.Counter.incr c;
      Alcotest.(check (float 1e-9)) "no-op when disabled" 6.5 (M.Counter.value c);
      Obs.set_enabled true;
      Alcotest.(check (option (float 1e-9))) "registry read-back" (Some 6.5)
        (R.value reg "c_total"))

let test_gauge_semantics () =
  with_obs (fun () ->
      let reg = R.create () in
      let g = M.Gauge.create ~registry:reg ~help:"h" "g" in
      M.Gauge.set g 4.0;
      M.Gauge.add g (-1.5);
      Alcotest.(check (float 1e-9)) "set then add" 2.5 (M.Gauge.value g);
      M.Gauge.set_int g 7;
      Alcotest.(check (float 1e-9)) "set_int overrides" 7.0 (M.Gauge.value g);
      Alcotest.check_raises "NaN rejected" (Invalid_argument "Obs.Metric.Gauge.set: NaN")
        (fun () -> M.Gauge.set g Float.nan))

let test_family_semantics () =
  with_obs (fun () ->
      let reg = R.create () in
      let fam = M.Family.counter ~registry:reg ~help:"h" ~label_names:[ "op" ] "ops_total" in
      let a = M.Family.labels fam [ "read" ] in
      let b = M.Family.labels fam [ "write" ] in
      let a' = M.Family.labels fam [ "read" ] in
      Alcotest.(check bool) "same labels share a child" true (a == a');
      M.Counter.incr a;
      M.Counter.incr a;
      M.Counter.incr b;
      Alcotest.(check (option (float 1e-9))) "read child" (Some 2.0)
        (R.value reg ~labels:[ ("op", "read") ] "ops_total");
      Alcotest.(check (option (float 1e-9))) "write child" (Some 1.0)
        (R.value reg ~labels:[ ("op", "write") ] "ops_total");
      Alcotest.check_raises "arity mismatch"
        (Invalid_argument "Obs.Metric.Family.labels: label arity mismatch") (fun () ->
          ignore (M.Family.labels fam [ "a"; "b" ])))

let test_registry_rejects_conflicts () =
  let reg = R.create () in
  let _ = M.Counter.create ~registry:reg ~help:"h" "dup" in
  Alcotest.check_raises "duplicate name+labels"
    (Invalid_argument "Obs.Registry.register: duplicate metric dup (same label set)")
    (fun () -> ignore (M.Counter.create ~registry:reg ~help:"h" "dup"));
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Obs.Registry.register: dup already registered as a counter")
    (fun () -> ignore (M.Gauge.create ~registry:reg ~help:"h" ~labels:[ ("l", "v") ] "dup"));
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Obs.Registry.register: invalid metric name \"9bad\"") (fun () ->
      ignore (M.Counter.create ~registry:reg ~help:"h" "9bad"))

let test_registry_reset () =
  with_obs (fun () ->
      let reg = R.create () in
      let c = M.Counter.create ~registry:reg ~help:"h" "c_total" in
      let h = M.Histogram.create ~registry:reg ~help:"h" "h_seconds" in
      M.Counter.incr c;
      M.Histogram.observe h 1.0;
      R.reset reg;
      Alcotest.(check (option (float 1e-9))) "counter zeroed" (Some 0.0) (R.value reg "c_total");
      Alcotest.(check int) "histogram emptied" 0 (M.Histogram.count h))

(* ------------------------ histogram vs. oracle ------------------------ *)

(* The log-linear buckets have relative width 1/32 per octave, so the
   midpoint estimate is within ~1.6% of any value in the bucket; 5% leaves
   headroom. The oracle is rank selection on the sorted observations, with
   the same rank convention as the implementation, for the quantiles a
   snapshot exports. *)
let quantile h q =
  match List.assoc_opt q (M.Histogram.snapshot h).R.quantiles with
  | Some v -> v
  | None -> Alcotest.failf "snapshot exports no %g quantile" q

let prop_histogram_quantiles =
  QCheck.Test.make ~name:"histogram quantiles track a sorted-array oracle" ~count:200
    QCheck.(pair (int_range 1 300) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Eutil.Prng.create seed in
      with_obs (fun () ->
          let reg = R.create () in
          let h = M.Histogram.create ~registry:reg ~help:"h" "q_seconds" in
          let values =
            Array.init n (fun _ -> Float.exp (Eutil.Prng.range rng (-10.0) 10.0))
          in
          Array.iter (M.Histogram.observe h) values;
          let sorted = Array.copy values in
          Array.sort Float.compare sorted;
          List.for_all
            (fun q ->
              let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
              let oracle = sorted.(rank - 1) in
              let est = quantile h q in
              abs_float (est -. oracle) <= 0.05 *. oracle)
            [ 0.5; 0.9; 0.99 ]))

let test_histogram_edge_values () =
  with_obs (fun () ->
      let reg = R.create () in
      let h = M.Histogram.create ~registry:reg ~help:"h" "edge_seconds" in
      List.iter (M.Histogram.observe h)
        [ 0.0; -2.0; infinity; 1.0; 0.0; 1.0; 0.0; 1.0; 0.0; 1.0 ];
      Alcotest.(check int) "all ten counted" 10 (M.Histogram.count h);
      (* Ranks 1-5 live in the <= 0 bin, ranks 6-9 at 1.0 and rank 10 in
         the +Inf overflow: p50 is rank 5, p90 rank 9 and p99 rank 10. *)
      Alcotest.(check (float 1e-9)) "low quantile is the negative min" (-2.0) (quantile h 0.5);
      Alcotest.(check (float 0.05)) "rank-9 quantile near 1.0" 1.0 (quantile h 0.9);
      Alcotest.(check bool) "top quantile is the +Inf observation" true
        (quantile h 0.99 = infinity);
      Alcotest.check_raises "NaN rejected"
        (Invalid_argument "Obs.Metric.Histogram.observe: NaN") (fun () ->
          M.Histogram.observe h Float.nan))

(* ------------------------------ exporters ----------------------------- *)

let golden_registry () =
  let reg = R.create () in
  let c = M.Counter.create ~registry:reg ~help:"Total requests" "requests_total" in
  let g =
    M.Gauge.create ~registry:reg ~help:"Lab temperature"
      ~labels:[ ("site", "lab \"A\"") ]
      "temp_celsius"
  in
  with_obs (fun () ->
      M.Counter.add_int c 3;
      M.Gauge.set g 21.5);
  reg

let test_export_text_golden () =
  let reg = golden_registry () in
  Alcotest.(check string) "text export"
    ("counter   requests_total                                   3\n"
   ^ "gauge     temp_celsius{site=\"lab \\\"A\\\"\"}                   21.5\n")
    (Obs.Export.to_text (R.snapshot reg))

let test_export_json_golden () =
  let reg = golden_registry () in
  let json = Obs.Export.to_json (R.snapshot reg) in
  Alcotest.(check string) "json export"
    ("{\"metrics\":[\n"
   ^ "{\"name\":\"requests_total\",\"kind\":\"counter\",\"help\":\"Total requests\",\"labels\":{},\"value\":3},\n"
   ^ "{\"name\":\"temp_celsius\",\"kind\":\"gauge\",\"help\":\"Lab temperature\",\"labels\":{\"site\":\"lab \\\"A\\\"\"},\"value\":21.5}\n"
   ^ "]}\n")
    json;
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Obs.Export.validate_json json)

let test_export_prometheus_golden () =
  let reg = golden_registry () in
  Alcotest.(check string) "prometheus export"
    ("# HELP requests_total Total requests\n" ^ "# TYPE requests_total counter\n"
   ^ "requests_total 3\n" ^ "# HELP temp_celsius Lab temperature\n"
   ^ "# TYPE temp_celsius gauge\n" ^ "temp_celsius{site=\"lab \\\"A\\\"\"} 21.5\n")
    (Obs.Export.to_prometheus (R.snapshot reg))

(* Registration order must not leak into export bytes: the exporters sort
   samples by (name, labels), so two registries holding the same instruments
   registered in opposite orders render identically. *)
let test_export_order_independence () =
  let make order =
    let reg = R.create () in
    let counter () = M.Counter.create ~registry:reg ~help:"Total requests" "requests_total" in
    let gauge label =
      M.Gauge.create ~registry:reg ~help:"Lab temperature" ~labels:[ ("site", label) ]
        "temp_celsius"
    in
    let fill c ga gb =
      with_obs (fun () ->
          M.Counter.add_int c 3;
          M.Gauge.set ga 21.5;
          M.Gauge.set gb 19.0)
    in
    (match order with
    | `Forward ->
        let c = counter () in
        let ga = gauge "a" in
        let gb = gauge "b" in
        fill c ga gb
    | `Reverse ->
        let gb = gauge "b" in
        let ga = gauge "a" in
        let c = counter () in
        fill c ga gb);
    R.snapshot reg
  in
  let fwd = make `Forward and rev = make `Reverse in
  Alcotest.(check string) "text order-independent" (Obs.Export.to_text fwd)
    (Obs.Export.to_text rev);
  Alcotest.(check string) "json order-independent" (Obs.Export.to_json fwd)
    (Obs.Export.to_json rev);
  Alcotest.(check string) "prometheus order-independent" (Obs.Export.to_prometheus fwd)
    (Obs.Export.to_prometheus rev)

let test_export_histogram_structure () =
  with_obs (fun () ->
      let reg = R.create () in
      let h = M.Histogram.create ~registry:reg ~help:"Latency" "latency_seconds" in
      List.iter (M.Histogram.observe h) [ 0.001; 0.002; 0.004 ];
      let samples = R.snapshot reg in
      let json = Obs.Export.to_json samples in
      Alcotest.(check (result unit string)) "json validates" (Ok ())
        (Obs.Export.validate_json json);
      let prom = Obs.Export.to_prometheus samples in
      let has needle =
        Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle prom)
      in
      has "latency_seconds_bucket{le=";
      has "latency_seconds_bucket{le=\"+Inf\"} 3";
      has "latency_seconds_count 3";
      has "latency_seconds_sum 0.007")

let test_validate_json_rejects () =
  let bad input =
    match Obs.Export.validate_json input with
    | Ok () -> Alcotest.failf "accepted invalid JSON: %s" input
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"unterminated";
  bad "01";
  bad "1.2.3";
  bad "{\"a\":1} trailing";
  bad "nul";
  List.iter
    (fun good ->
      Alcotest.(check (result unit string)) ("accepts " ^ good) (Ok ())
        (Obs.Export.validate_json good))
    [ "{}"; "[]"; "null"; "-1.5e-3"; "{\"a\":[1,2,{\"b\":\"\\u00e9\"}]}"; "  true  " ]

(* -------------------------------- spans ------------------------------- *)

let test_span_tree_with_injected_clock () =
  with_obs (fun () ->
      let t = ref 100.0 in
      Obs.Clock.set_source (fun () -> !t);
      let (), dur =
        Obs.Span.timed "outer" (fun () ->
            t := !t +. 1.0;
            Obs.Span.with_ "inner" (fun () -> t := !t +. 0.5))
      in
      Alcotest.(check (float 1e-9)) "outer duration" 1.5 dur;
      (* Earlier tests may have completed roots of their own: ours is the
         newest. *)
      match List.rev (Obs.Span.roots ()) with
      | root :: _ -> (
          Alcotest.(check string) "root name" "outer" root.Obs.Span.name;
          Alcotest.(check (float 1e-9)) "root duration" 1.5 root.Obs.Span.dur_s;
          match root.Obs.Span.children with
          | [ child ] ->
              Alcotest.(check string) "child name" "inner" child.Obs.Span.name;
              Alcotest.(check (float 1e-9)) "child duration" 0.5 child.Obs.Span.dur_s
          | l -> Alcotest.failf "expected one child, got %d" (List.length l))
      | [] -> Alcotest.fail "no root recorded")

let test_span_disabled_still_times () =
  Obs.set_enabled false;
  let before = Obs.Span.roots () in
  let t = ref 0.0 in
  Obs.Clock.set_source (fun () -> !t);
  Fun.protect ~finally:reset_clock (fun () ->
      let (), dur = Obs.Span.timed "quiet" (fun () -> t := !t +. 2.0) in
      Alcotest.(check (float 1e-9)) "duration measured" 2.0 dur;
      let after = Obs.Span.roots () in
      Alcotest.(check bool) "nothing recorded" true
        (List.length before = List.length after && List.for_all2 ( == ) before after))

let test_clock_is_monotonic () =
  let t = ref 10.0 in
  Obs.Clock.set_source (fun () -> !t);
  Fun.protect ~finally:reset_clock (fun () ->
      let a = Obs.Clock.now_s () in
      t := 5.0;
      (* a wall-clock step backwards *)
      let b = Obs.Clock.now_s () in
      Alcotest.(check bool) "never goes backwards" true (b >= a))

let () =
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "family" `Quick test_family_semantics;
          Alcotest.test_case "registry conflicts" `Quick test_registry_rejects_conflicts;
          Alcotest.test_case "registry reset" `Quick test_registry_reset;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_histogram_quantiles;
          Alcotest.test_case "edge values" `Quick test_histogram_edge_values;
        ] );
      ( "export",
        [
          Alcotest.test_case "text golden" `Quick test_export_text_golden;
          Alcotest.test_case "json golden" `Quick test_export_json_golden;
          Alcotest.test_case "prometheus golden" `Quick test_export_prometheus_golden;
          Alcotest.test_case "order independence" `Quick test_export_order_independence;
          Alcotest.test_case "histogram structure" `Quick test_export_histogram_structure;
          Alcotest.test_case "validate_json" `Quick test_validate_json_rejects;
        ] );
      ( "span",
        [
          Alcotest.test_case "nested tree" `Quick test_span_tree_with_injected_clock;
          Alcotest.test_case "disabled still times" `Quick test_span_disabled_still_times;
          Alcotest.test_case "monotonic clock" `Quick test_clock_is_monotonic;
        ] );
    ]
