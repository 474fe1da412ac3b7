(* Tests for the power models of Section 5.1. *)

module G = Topo.Graph
module State = Topo.State
module Model = Power.Model
module U = Eutil.Units

(* Tests compare against literal expectations, so unwrap at the assert. *)
let node_power m g n = U.to_float (Model.node_power m g n)
let link_power m g l = U.to_float (Model.link_power m g l)
let full m g = U.to_float (Model.full m g)
let total m g st = U.to_float (Model.total m g st)

let test_cisco_chassis_share () =
  (* In a typical configuration the chassis is a large share of router power:
     one router with two OC48 ports -> 600 / (600 + 2*140) ~ 68 %. *)
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  let z = G.Builder.add_node b "z" in
  ignore (G.Builder.add_link b ~capacity:2.5e9 ~latency:1e-4 x y);
  ignore (G.Builder.add_link b ~capacity:2.5e9 ~latency:1e-4 x z);
  let g = G.Builder.build b in
  let m = Model.cisco12000 g in
  Alcotest.(check (float 1e-9)) "chassis" 600.0 (node_power m g x);
  (* Full power: 3 chassis + 2 links of 2 OC48 ports each. *)
  Alcotest.(check (float 1e-6)) "full" ((3.0 *. 600.0) +. (2.0 *. 280.0)) (full m g)

let test_linecard_steps () =
  let b = G.Builder.create () in
  let n = Array.init 5 (fun i -> G.Builder.add_node b (Printf.sprintf "v%d" i)) in
  ignore (G.Builder.add_link b ~capacity:10e9 ~latency:1e-4 n.(0) n.(1));
  ignore (G.Builder.add_link b ~capacity:2.5e9 ~latency:1e-4 n.(0) n.(2));
  ignore (G.Builder.add_link b ~capacity:622e6 ~latency:1e-4 n.(0) n.(3));
  ignore (G.Builder.add_link b ~capacity:155e6 ~latency:1e-4 n.(0) n.(4));
  let g = G.Builder.build b in
  let m = Model.cisco12000 g in
  let port cap l = ignore cap; link_power m g l in
  (* link power = 2 ports + amplifiers (none at 20 km). *)
  Alcotest.(check (float 1e-9)) "OC192" (2.0 *. 174.0) (port 10e9 0);
  Alcotest.(check (float 1e-9)) "OC48" (2.0 *. 140.0) (port 2.5e9 1);
  Alcotest.(check (float 1e-9)) "OC12" (2.0 *. 80.0) (port 622e6 2);
  Alcotest.(check (float 1e-9)) "OC3" (2.0 *. 60.0) (port 155e6 3)

let test_amplifiers_from_length () =
  let b = G.Builder.create () in
  let x = G.Builder.add_node b "x" in
  let y = G.Builder.add_node b "y" in
  (* 5 ms -> 1000 km -> 12 spans of 80 km -> 14.4 W. *)
  ignore (G.Builder.add_link b ~capacity:10e9 ~latency:5e-3 x y);
  let g = G.Builder.build b in
  let m = Model.cisco12000 g in
  Alcotest.(check (float 1e-9)) "amplifiers" ((2.0 *. 174.0) +. (12.0 *. 1.2))
    (link_power m g 0)

let test_alternative_hw () =
  let g = Topo.Geant.make () in
  let base = Model.cisco12000 g in
  let alt = Model.alternative_hw g in
  Alcotest.(check (float 1e-9)) "chassis / 10" (node_power base g 0 /. 10.0)
    (node_power alt g 0);
  Alcotest.(check bool) "full power lower" true (full alt g < full base g)

let test_total_follows_state () =
  let g = Topo.Geant.make () in
  let m = Model.cisco12000 g in
  let st = State.all_on g in
  Alcotest.(check (float 1e-6)) "all on = full" (full m g) (total m g st);
  Alcotest.(check (float 1e-9)) "percent" 100.0 (Model.percent_of_full m g st);
  (* Switch one link off: total drops exactly by that link's power (no router
     turns off because GEANT is 2-connected at PT). *)
  let before = total m g st in
  State.set_link g st 0 false;
  let after = total m g st in
  Alcotest.(check (float 1e-6)) "link delta" (link_power m g 0) (before -. after);
  (* All off consumes nothing. *)
  Alcotest.(check (float 1e-9)) "all off" 0.0 (total m g (State.all_off g))

let test_hosts_free_in_commodity_model () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let m = Model.commodity_dc g in
  Array.iter
    (fun h -> Alcotest.(check (float 1e-9)) "host chassis" 0.0 (node_power m g h))
    ft.Topo.Fattree.hosts;
  (* Idle overhead dominates: a switch with zero traffic still consumes 90 %
     of its budget once powered. *)
  let c = ft.Topo.Fattree.cores.(0) in
  Alcotest.(check (float 1e-9)) "core chassis" 135.0 (node_power m g c)

let test_commodity_switch_split () =
  let ft = Topo.Fattree.make 4 in
  let g = ft.Topo.Fattree.graph in
  let m = Model.commodity_dc ~peak:(U.watts 100.0) g in
  (* Fully active fat-tree: every switch consumes exactly its peak budget:
     0.9*peak chassis + degree * (0.1*peak/degree) ports. 20 switches. *)
  Alcotest.(check (float 1e-6)) "full = 20 switch peaks" (20.0 *. 100.0) (full m g)

let test_state_of_loads () =
  let g = Fixtures.line 3 in
  let st = Power.Model.state_of_loads g (fun l -> if l = 0 then 5.0 else 0.0) in
  Alcotest.(check bool) "loaded link on" true (State.link_on st 0);
  Alcotest.(check bool) "idle link sleeps" false (State.link_on st 1);
  Alcotest.(check bool) "middle node on" true (State.node_on st 1);
  Alcotest.(check bool) "tail node off" false (State.node_on st 2)

(* Property: power is monotone in the activity state. *)
let prop_power_monotone =
  QCheck.Test.make ~name:"power monotone in active set" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g = Topo.Geant.make () in
      let m = Model.cisco12000 g in
      let st = State.all_on g in
      let prev = ref (total m g st) in
      let ok = ref true in
      (* Turn links off one by one in random order; power must never rise. *)
      let order = Array.init (G.link_count g) (fun l -> l) in
      Eutil.Prng.shuffle rng order;
      Array.iter
        (fun l ->
          State.set_link g st l false;
          let now = total m g st in
          if now > !prev +. 1e-9 then ok := false;
          prev := now)
        order;
      !ok)

(* Property: every model output is finite on generated topologies under
   random sleep states — the units layer bars NaN at construction, and the
   models must not mint one (nor an infinity) downstream. *)
let prop_power_finite =
  QCheck.Test.make ~name:"power outputs always finite" ~count:100
    QCheck.(pair (int_range 2 24) (int_range 0 10_000))
    (fun (nodes, seed) ->
      let g = Fixtures.line nodes in
      let rng = Eutil.Prng.create seed in
      let st = State.all_on g in
      for l = 0 to G.link_count g - 1 do
        if Eutil.Prng.float rng < 0.3 then State.set_link g st l false
      done;
      List.for_all
        (fun m ->
          Float.is_finite (full m g)
          && Float.is_finite (total m g st)
          && (let ok = ref true in
              for n = 0 to G.node_count g - 1 do
                if not (Float.is_finite (node_power m g n)) then ok := false
              done;
              for l = 0 to G.link_count g - 1 do
                if not (Float.is_finite (link_power m g l)) then ok := false
              done;
              !ok))
        [ Model.cisco12000 g; Model.alternative_hw g; Model.commodity_dc g ])

(* The one-pass figures equal their definitions to the bit: [total],
   [full] (over an all-on state) and [100 * total / full] taken through
   [Units.div_opt] as [percent_of_full] took it before, which must read the
   same. Random states, from all off to all on, of GEANT, the k = 4
   fat-tree and a graph with a node that has no link (never on, not even
   in the all-on state), under the three hardware models. With Obs on,
   the three power gauges read the state's counts. *)
let prop_figures_one_pass =
  let isolated =
    let b = G.Builder.create () in
    let x = G.Builder.add_node b "x" and y = G.Builder.add_node b "y" in
    ignore (G.Builder.add_node b "alone");
    ignore (G.Builder.add_link b ~capacity:2.5e9 ~latency:1e-3 x y);
    G.Builder.build b
  in
  let topos = [| Topo.Geant.make (); (Topo.Fattree.make 4).Topo.Fattree.graph; isolated |] in
  let gauge name = Option.value (Obs.Registry.value Obs.Registry.default name) ~default:(-1.0) in
  QCheck.Test.make ~name:"figures equal their definitions" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Eutil.Prng.create seed in
      let g = topos.(Eutil.Prng.int rng (Array.length topos)) in
      let m =
        [| Model.cisco12000 g; Model.alternative_hw g; Model.commodity_dc g |].(Eutil.Prng.int rng 3)
      in
      let st = State.all_off g in
      let p = Eutil.Prng.float rng in
      G.iter_links g ~f:(fun l -> if Eutil.Prng.float rng < p then State.set_link g st l true);
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let percent =
        match U.div_opt (Model.total m g st) (Model.full m g) with
        | None -> 0.0
        | Some r -> U.percent r
      in
      Obs.set_enabled true;
      let f =
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> Model.figures m g st)
      in
      let awake = State.active_links st in
      same (U.to_float f.Model.total) (total m g st)
      && same (U.to_float f.Model.full) (full m g)
      && same f.Model.percent percent
      && same (Model.percent_of_full m g st) percent
      && gauge "power_nodes_awake" = float_of_int (State.active_nodes st)
      && gauge "power_links_awake" = float_of_int awake
      && gauge "power_links_asleep" = float_of_int (G.link_count g - awake))

let () =
  Alcotest.run "power"
    [
      ( "models",
        [
          Alcotest.test_case "cisco chassis share" `Quick test_cisco_chassis_share;
          Alcotest.test_case "linecard steps" `Quick test_linecard_steps;
          Alcotest.test_case "amplifiers" `Quick test_amplifiers_from_length;
          Alcotest.test_case "alternative hw" `Quick test_alternative_hw;
          Alcotest.test_case "commodity hosts free" `Quick test_hosts_free_in_commodity_model;
          Alcotest.test_case "commodity peak split" `Quick test_commodity_switch_split;
        ] );
      ( "totals",
        [
          Alcotest.test_case "follows state" `Quick test_total_follows_state;
          Alcotest.test_case "state of loads" `Quick test_state_of_loads;
          QCheck_alcotest.to_alcotest prop_power_monotone;
          QCheck_alcotest.to_alcotest prop_power_finite;
          QCheck_alcotest.to_alcotest prop_figures_one_pass;
        ] );
    ]
