(* Tests for the static-analysis layer (lib/check): every Srclint rule fires
   on a seeded-violation fixture, the suppression pragmas work, the cleaner
   does not report code hidden in strings/comments, and each Invariant
   validator flags a forged bad value while accepting the healthy one. *)

module F = Check.Finding
module Lint = Check.Srclint
module Inv = Check.Invariant
module Graph = Topo.Graph
module Path = Topo.Path

let rule_ids fs = List.sort_uniq String.compare (List.map (fun f -> f.F.rule) fs)
let has_rule rule fs = List.exists (fun f -> String.equal f.F.rule rule) fs
let rule_ids_of rules = List.map (fun (r : F.rule) -> r.F.id) rules

let lint src = Lint.lint ~file:"fixture.ml" (Lint.clean src)

let fires rule src =
  Alcotest.(check bool) (rule ^ " fires") true (has_rule rule (lint src))

let lints_clean name src =
  Alcotest.(check (list string)) (name ^ " is clean") [] (rule_ids (lint src))

(* ------------------------------ Srclint ----------------------------- *)

(* Lint fixtures live in strings: the linter blanks string literals, so the
   violations below never trip the repo's own lint pass. *)

let test_poly_compare () =
  fires "poly-compare" "let sorted = List.sort compare xs\n";
  fires "poly-compare" "let r = Stdlib.compare a b\n";
  lints_clean "definition" "let compare a b = 0\n";
  lints_clean "qualified" "let c = Float.compare a b\n";
  lints_clean "labelled arg" "let s = sort ~compare xs\n"

let test_obj_magic () =
  fires "obj-magic" "let x = Obj.magic y\n";
  lints_clean "in string" {|let s = "Obj.magic"
|};
  lints_clean "in comment" "(* Obj.magic is banned *)\nlet x = 1\n"

let test_hashtbl_find () =
  fires "hashtbl-find" "let v = Hashtbl.find h k\n";
  lints_clean "find_opt" "let v = Hashtbl.find_opt h k\n"

let test_catchall_try () =
  fires "catchall-try" "let f () = try g () with _ -> 0\n";
  lints_clean "named exception" "let f () = try g () with Not_found -> 0\n";
  lints_clean "match wildcard" "let f x = match x with _ -> 0\n";
  lints_clean "record with" "let r2 = { r with field = 1 }\n"

let test_list_nth () =
  fires "list-nth" "let x = List.nth l 3\n";
  lints_clean "array access" "let x = a.(3)\n"

let test_pragma_suppression () =
  lints_clean "same line" "let v = Hashtbl.find h k (* lint: allow hashtbl-find *)\n";
  lints_clean "preceding line" "(* lint: allow hashtbl-find *)\nlet v = Hashtbl.find h k\n";
  lints_clean "allow all" "(* lint: allow all *)\nlet v = Hashtbl.find h (List.nth l 0)\n";
  (* A pragma only covers the named rules. *)
  let fs = lint "(* lint: allow list-nth *)\nlet v = Hashtbl.find h (List.nth l 0)\n" in
  Alcotest.(check (list string)) "other rules still fire" [ "hashtbl-find" ] (rule_ids fs)

let test_locations_and_severity () =
  let fs = lint "let a = 1\nlet x = List.nth l 3\n" in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "line 2" true (String.length f.F.where >= 12
                                           && String.sub f.F.where 0 12 = "fixture.ml:2");
      Alcotest.(check bool) "severity error" true (f.F.severity = F.Error)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_rules_catalogue () =
  let ids = rule_ids_of Lint.rules in
  Alcotest.(check int) "five lint rules" 5 (List.length ids);
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " listed") true (List.mem id ids))
    [ "poly-compare"; "obj-magic"; "hashtbl-find"; "catchall-try"; "list-nth" ]

let test_report_formats () =
  let fs = lint "let x = Obj.magic y\n" in
  let txt = F.render fs in
  Alcotest.(check bool) "text mentions rule" true
    (String.length txt > 0 && has_rule "obj-magic" fs);
  let json = String.trim (F.to_json fs) in
  Alcotest.(check bool) "json array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']')

(* ---------------------------- lexer edges ---------------------------- *)

(* Regressions for the shared lexer: literals that hide rule tokens, the
   '\'' char literal, underscore-delimited quoted strings, and number /
   operator tokens coexisting with the existing rules. *)

let test_lexer_string_edges () =
  lints_clean "escaped quote in string" "let s = \"a \\\" Obj.magic\"\nlet x = 1\n";
  lints_clean "nested comment" "(* outer (* List.nth *) still comment *)\nlet x = 1\n";
  lints_clean "string inside comment" "(* \"*)\" Obj.magic *)\nlet x = 1\n";
  lints_clean "quoted string" "let s = {x|Obj.magic|x}\nlet y = 1\n";
  lints_clean "underscore quoted string" "let s = {_|Obj.magic|_}\nlet y = 1\n"

let test_lexer_char_literals () =
  (* The escaped-quote char literal must not swallow the rest of the file:
     the violation after it still fires, and a banned name inside a
     subsequent string stays hidden. *)
  fires "list-nth" "let q = '\\''\nlet x = List.nth l 3\n";
  lints_clean "quote literal then string" "let q = '\\''\nlet s = \"Obj.magic\"\n";
  lints_clean "plain char and type var" "let c = 'a'\ntype t = 'b * int\n"

let test_lexer_numbers_and_ops () =
  (* Number and operator tokens must not perturb neighbouring rules. *)
  fires "poly-compare" "let x = 2.5e9\nlet s = List.sort compare xs\n";
  fires "catchall-try" "let f () = try 1.0 /. g () with _ -> 0.0\n";
  lints_clean "arith ops" "let y = (a +. 1e3) *. b -. c ** 2.0\nlet z = xs |> f\n"

let test_lexer_attributes () =
  (* An attribute is one token: rules still fire around it, payload text is
     hidden, and a multi-line payload keeps line numbers honest. *)
  fires "list-nth" "let[@inline] f l = List.nth l 3\n";
  lints_clean "attr payload hidden" "let[@deprecated \"use List.nth instead\"] f l = l\n";
  let fs = lint "let[@warning\n  \"-32\"] a = 1\nlet x = List.nth l 3\n" in
  match fs with
  | [ f ] -> Alcotest.(check bool) "line survives multi-line attr" true
               (String.length f.F.where >= 12 && String.sub f.F.where 0 12 = "fixture.ml:3")
  | _ -> Alcotest.fail "expected exactly one finding"

(* ------------------------------- Flow -------------------------------- *)

let analyze ?(file = "fixture.ml") src = Check.Flow.analyze ~file (Lint.clean src)

let flow_fires rule src =
  Alcotest.(check bool) (rule ^ " fires") true (has_rule rule (analyze src))

let flow_clean name src =
  Alcotest.(check (list string)) (name ^ " is clean") [] (rule_ids (analyze src))

let test_flow_div_unguarded () =
  flow_fires "div-unguarded" "let f a b = a /. b\n";
  flow_fires "div-unguarded" "let f a = a /. 0.0\n";
  flow_fires "div-unguarded" "let f a n = a /. float_of_int n\n";
  (* max with a zero floor is no guard at all *)
  flow_fires "div-unguarded" "let f a b = a /. max 0.0 b\n"

let test_flow_div_guards () =
  flow_clean "zero handled" "let f a b = if b = 0.0 then 0.0 else a /. b\n";
  flow_clean "bounded away" "let f a b = if b <= 0.0 then invalid_arg \"b\" else a /. b\n";
  flow_clean "max floor" "let f a b = a /. max 1e-9 b\n";
  flow_clean "max binding" "let f a b = let d = max 0.5 b in a /. d\n";
  flow_clean "assert" "let f a b = assert (b > 0.0);\n  a /. b\n";
  flow_clean "int guard" "let f a n = if n = 0 then 0.0 else a /. float_of_int n\n";
  flow_clean "literal divisor" "let f a = a /. 2.0\n";
  flow_clean "toplevel constant" "let day = 86_400.0\nlet f t = t /. day\n";
  (* Facts do not leak across toplevel definitions. *)
  flow_fires "div-unguarded" "let g b = b > 0.0\nlet f a b = a /. b\n"

let test_flow_nan_compare () =
  flow_fires "nan-compare" "let bad x = x > nan\n";
  flow_fires "nan-compare" "let bad x = nan = x\n";
  flow_fires "nan-compare" "let bad x = x < Float.nan\n";
  flow_fires "nan-compare" "let bad x = x <> x\n";
  flow_clean "explicit predicate" "let ok x = Float.is_nan x\n";
  (* Unary function definitions are [=]-self-comparison shaped; they must
     not fire. *)
  flow_clean "identity def" "let id x = x\nlet double x = x *. 2.0\n"

let test_flow_magic_unit () =
  flow_fires "magic-unit" "let f b = add b 2.5e9\n";
  flow_fires "magic-unit" "let f b = b *. 1e9\n";
  flow_clean "wrapped" "let f b = add b (U.bps 2.5e9)\n";
  flow_clean "wrapped qualified" "let t = Eutil.Units.gbps 20e9\n";
  flow_clean "named constant" "let oc48 = 2.5e9\n";
  flow_clean "optional default" "let make ?(capacity = 1e9) () = build capacity\n";
  flow_clean "small literal" "let eps = f 1e-9\n";
  (* units.ml itself defines the prefixes and is exempt. *)
  Alcotest.(check (list string)) "units.ml exempt" []
    (rule_ids (analyze ~file:"lib/util/units.ml" "let giga = scale 1e9\n"))

let test_flow_unit_relabel () =
  flow_fires "unit-relabel" "let b = U.bps (U.to_float w)\n";
  flow_fires "unit-relabel" "let b = Eutil.Units.watts (2.0 *. Eutil.Units.to_float x)\n";
  flow_clean "annotated" "let b = U.bps (U.to_float (x : U.bps U.q))\n";
  flow_clean "plain wrap" "let b = U.bps (f y)\n"

let test_flow_pragmas_and_catalogue () =
  flow_clean "pragma same line" "let f a b = a /. b (* lint: allow div-unguarded *)\n";
  flow_clean "pragma preceding" "(* lint: allow nan-compare *)\nlet bad x = x <> x\n";
  let ids = rule_ids_of Check.Flow.rules in
  Alcotest.(check int) "four analysis rules" 4 (List.length ids);
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " listed") true (List.mem id ids))
    [ "div-unguarded"; "nan-compare"; "magic-unit"; "unit-relabel" ]

(* Acceptance criterion: the shipped tree is clean. Running from the test
   sandbox we re-analyze the sources when dune exposes them; otherwise the
   @analyze alias covers it. *)
let test_flow_rule_classes_distinct () =
  let seeded =
    "let f a b = a /. b\n\
     let g x = x <> x\n\
     let h b = add b 2.5e9\n\
     let k w = U.bps (U.to_float w)\n"
  in
  Alcotest.(check (list string)) "all four classes fire on one fixture"
    [ "div-unguarded"; "magic-unit"; "nan-compare"; "unit-relabel" ]
    (rule_ids (analyze seeded))

(* ----------------------------- Invariant ---------------------------- *)

let ex = Topo.Example.make ()
let g = ex.Topo.Example.graph

let arc i j =
  match Graph.find_arc g i j with
  | Some a -> a
  | None -> Alcotest.fail "fixture arc missing"

(* Healthy always-on path A-E-H-K from the paper's Figure 3. *)
let p_aek () =
  Path.of_arcs g
    [ arc ex.Topo.Example.a ex.Topo.Example.e;
      arc ex.Topo.Example.e ex.Topo.Example.h;
      arc ex.Topo.Example.h ex.Topo.Example.k ]

(* The disjoint alternative A-D-G-K. *)
let p_adk () =
  Path.of_arcs g
    [ arc ex.Topo.Example.a ex.Topo.Example.d;
      arc ex.Topo.Example.d ex.Topo.Example.g;
      arc ex.Topo.Example.g ex.Topo.Example.k ]

let has rule fs = Alcotest.(check bool) (rule ^ " fires") true (has_rule rule fs)

let no_findings name fs = Alcotest.(check (list string)) (name ^ " is clean") [] (rule_ids fs)

let test_graph_clean () = no_findings "example graph" (Inv.check_graph g)

let test_path_valid () =
  no_findings "A-E-H-K"
    (Inv.check_path g ~expect:(ex.Topo.Example.a, ex.Topo.Example.k) ~where:"p" (p_aek ()))

let test_path_discontiguous () =
  (* Arcs A->E then H->K: E and H do not chain. The record is forged
     directly because Path.of_arcs would (rightly) refuse to build it. *)
  let p =
    { Path.src = ex.Topo.Example.a;
      dst = ex.Topo.Example.k;
      arcs = [| arc ex.Topo.Example.a ex.Topo.Example.e; arc ex.Topo.Example.h ex.Topo.Example.k |] }
  in
  has "path-discontiguous" (Inv.check_path g ~where:"p" p);
  let out_of_range = { Path.src = 0; dst = 0; arcs = [| Graph.arc_count g + 7 |] } in
  has "path-discontiguous" (Inv.check_path g ~where:"p" out_of_range)

let test_path_endpoint () =
  let p = p_aek () in
  has "path-endpoint" (Inv.check_path g ~where:"p" { p with Path.dst = ex.Topo.Example.j });
  (* Valid path, but installed for the wrong OD pair. *)
  has "path-endpoint" (Inv.check_path g ~expect:(ex.Topo.Example.c, ex.Topo.Example.k) ~where:"p" p)

let test_path_loop () =
  (* A->E followed by E->A revisits A. *)
  let p =
    { Path.src = ex.Topo.Example.a;
      dst = ex.Topo.Example.a;
      arcs = [| arc ex.Topo.Example.a ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.a |] }
  in
  has "path-loop" (Inv.check_path g ~where:"p" p)

let entry ?(on_demand = []) ?failover origin dest always_on =
  { Inv.origin; dest; always_on; on_demand; failover }

let test_table_coverage () =
  let fs = Inv.check_tables g ~pairs:[ (ex.Topo.Example.a, ex.Topo.Example.k) ] [] in
  has "table-coverage" fs;
  Alcotest.(check bool) "coverage is an error" true (F.errors fs <> [])

let test_table_duplicate_pair () =
  let e = entry ex.Topo.Example.a ex.Topo.Example.k (p_aek ()) ~on_demand:[ p_adk () ] in
  let e2 = { e with Inv.on_demand = [] } in
  has "table-duplicate-pair" (Inv.check_tables g ~pairs:[] [ e; e2 ])

let test_table_ondemand_dup () =
  let p = p_adk () in
  let e = entry ex.Topo.Example.a ex.Topo.Example.k (p_aek ()) ~on_demand:[ p; p ] in
  has "table-ondemand-dup" (Inv.check_tables g ~pairs:[] [ e ])

let test_table_failover_overlap () =
  (* B's only exit is the link B-E, so every failover must reuse it: the
     checker reports the overlap as a warning, not an error (§2.2 wants
     disjointness but the topology does not admit it). *)
  let b = Option.get ex.Topo.Example.b in
  let always_on =
    Path.of_arcs g
      [ arc b ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.h;
        arc ex.Topo.Example.h ex.Topo.Example.k ]
  in
  let failover =
    Path.of_arcs g
      [ arc b ex.Topo.Example.e; arc ex.Topo.Example.e ex.Topo.Example.c;
        arc ex.Topo.Example.c ex.Topo.Example.f; arc ex.Topo.Example.f ex.Topo.Example.j;
        arc ex.Topo.Example.j ex.Topo.Example.k ]
  in
  let fs = Inv.check_tables g ~pairs:[] [ entry b ex.Topo.Example.k always_on ~failover ] in
  has "table-failover-overlap" fs;
  Alcotest.(check (list string)) "overlap is only a warning" [] (rule_ids (F.errors fs));
  (* A disjoint failover is silent. *)
  let ok = entry ex.Topo.Example.a ex.Topo.Example.k (p_aek ()) ~failover:(p_adk ()) in
  no_findings "disjoint failover" (Inv.check_tables g ~pairs:[] [ ok ])

let test_lp_model () =
  let m = Lp.Model.create () in
  let x = Lp.Model.var m "x" in
  let _dup = Lp.Model.var m "x" in
  let _neg = Lp.Model.var m ~ub:(-2.0) "z" in
  Lp.Model.constr m [ (Float.nan, x) ] Lp.Simplex.Le 1.0;
  let fs = Inv.check_model m in
  has "lp-duplicate-var" fs;
  has "lp-bound" fs;
  has "lp-nonfinite" fs;
  let ok = Lp.Model.create () in
  let a = Lp.Model.var ok ~ub:5.0 "a" in
  Lp.Model.constr ok [ (1.0, a) ] Lp.Simplex.Ge 1.0;
  Lp.Model.minimize ok [ (1.0, a) ];
  no_findings "healthy model" (Inv.check_model ok)

let test_traffic_matrix () =
  let n = Graph.node_count g in
  let bad = Traffic.Matrix.create n in
  Traffic.Matrix.set bad ex.Topo.Example.a ex.Topo.Example.k (-3.0);
  has "tm-negative" (Inv.check_matrix g bad);
  has "tm-dimension" (Inv.check_matrix g (Traffic.Matrix.create (n + 1)));
  no_findings "gravity matrix" (Inv.check_matrix g (Traffic.Gravity.make g ~total:(Eutil.Units.mbps 1.0) ()))

let test_power_model () =
  let good = Power.Model.cisco12000 g in
  no_findings "cisco model" (Inv.check_power good g);
  (* Forge a physically impossible model: the checked [Units.watts]
     constructor would reject NaN but happily carries a negative value, which
     is exactly what the power-monotone invariant is there to catch. *)
  let bad = { good with Power.Model.chassis = (fun _ -> Eutil.Units.watts (-5.0)) } in
  has "power-monotone" (Inv.check_power bad g)

(* Framework wiring: precompute validates its own tables when the flag is on
   (the default) and still succeeds on a healthy topology. *)
let test_framework_validates () =
  Alcotest.(check bool)
    "checks on by default" true
    (Atomic.get Response.Framework.install_checks);
  let pairs = [ (ex.Topo.Example.a, ex.Topo.Example.k); (ex.Topo.Example.c, ex.Topo.Example.k) ] in
  let tables = Response.Framework.precompute g (Power.Model.cisco12000 g) ~pairs in
  Alcotest.(check int) "entries cover pairs" (List.length pairs)
    (List.length (Response.Tables.entries tables))

(* ------------------------- callgraph / effect ----------------------- *)

module Cg = Check.Callgraph
module Eff = Check.Effect

let src ?(entry = false) ~lib file text =
  { Cg.sc_file = file; sc_library = lib; sc_entry = entry; sc_test = false; sc_text = text }

let find_def g ~module_ ~name =
  Array.find_opt (fun d -> d.Cg.d_module = module_ && d.Cg.d_name = name) g.Cg.defs

(* A two-library fixture with a known call graph: [helper] is private and
   partial, [top] reaches it, [safe] is total and never called. *)
let fixture_sources =
  [
    src ~lib:"alib" "alib/a.ml"
      "let helper xs = List.hd xs\n\nlet safe x = x + 1\n\nlet top xs = helper xs\n";
    src ~lib:"alib" "alib/a.mli"
      "val top : int list -> int\n(** First element. *)\n\nval safe : int -> int\n";
    src ~lib:"blib" "blib/b.ml" "let use xs = A.top xs\n";
    src ~lib:"blib" "blib/b.mli" "val use : int list -> int\n";
    src ~entry:true ~lib:"main" "bin/main.ml" "let () = ignore (B.use [ 1 ])\n";
  ]

let fixture () = Cg.build_sources fixture_sources

let test_cg_defs () =
  let g = fixture () in
  let names =
    Array.to_list g.Cg.defs
    |> List.map (fun d -> d.Cg.d_module ^ "." ^ d.Cg.d_name)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "all toplevel defs found"
    [ "A.helper"; "A.safe"; "A.top"; "B.use"; "Main.()" ]
    names;
  let helper = Option.get (find_def g ~module_:"A" ~name:"helper") in
  let top = Option.get (find_def g ~module_:"A" ~name:"top") in
  Alcotest.(check bool) "helper hidden by mli" false helper.Cg.d_public;
  Alcotest.(check bool) "top exported by mli" true top.Cg.d_public;
  Alcotest.(check bool) "entry flagged" true
    (Option.get (find_def g ~module_:"Main" ~name:"()")).Cg.d_entry

let test_cg_edges () =
  let g = fixture () in
  let id m n = (Option.get (find_def g ~module_:m ~name:n)).Cg.d_id in
  Alcotest.(check (list int)) "top calls helper" [ id "A" "helper" ] g.Cg.callees.(id "A" "top");
  Alcotest.(check (list int)) "use resolves cross-library A.top" [ id "A" "top" ]
    g.Cg.callees.(id "B" "use");
  Alcotest.(check (list int)) "safe calls nothing" [] g.Cg.callees.(id "A" "safe");
  (* Shortest chain entry -> partial primitive. *)
  let base i = Eff.base_of_body g.Cg.defs.(i).Cg.d_body in
  match
    Cg.witness g ~from:(id "Main" "()")
      ~target:(fun i -> not (Eff.Strings.is_empty (base i).Eff.partial))
  with
  | Some chain ->
      Alcotest.(check (list int))
        "witness chain"
        [ id "Main" "()"; id "B" "use"; id "A" "top"; id "A" "helper" ]
        chain
  | None -> Alcotest.fail "no witness chain found"

let test_cg_submodule_and_alias () =
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/deep.ml"
          "module Builder = struct\n  let make x = Option.get x\nend\n";
        src ~lib:"blib" "blib/client.ml"
          "module D = Deep\n\nlet go x = D.Builder.make x\n";
      ]
  in
  let mk = Option.get (find_def g ~module_:"Deep.Builder" ~name:"make") in
  let go = Option.get (find_def g ~module_:"Client" ~name:"go") in
  Alcotest.(check (list int)) "alias + submodule resolve" [ mk.Cg.d_id ] g.Cg.callees.(go.Cg.d_id)

let test_cg_raise_doc () =
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/r.ml"
          "let boom () = failwith \"no\"\n\nlet quiet () = failwith \"no\"\n";
        src ~lib:"alib" "alib/r.mli"
          "val boom : unit -> unit\n(** Always fails.\n    @raise Failure always. *)\n\n\
           val quiet : unit -> unit\n(** Undocumented. *)\n";
      ]
  in
  let doc v = List.find_opt (fun x -> x.Cg.v_name = v) g.Cg.vals in
  Alcotest.(check bool) "boom documented" true (Option.get (doc "boom")).Cg.v_raise_doc;
  Alcotest.(check bool) "quiet undocumented" false (Option.get (doc "quiet")).Cg.v_raise_doc

let effect_of s = Eff.base_of_body (Lint.clean s).Lint.toks
let strings l = Eff.Strings.of_list l

let test_effect_base () =
  let e = effect_of "let f h = Hashtbl.find h k\n" in
  Alcotest.(check bool) "partial find" true (Eff.Strings.mem "Hashtbl.find" e.Eff.partial);
  let e = effect_of "let f xs = List.hd xs + Option.get o\n" in
  Alcotest.(check bool) "hd+get" true
    (Eff.equal_effects e { Eff.empty with Eff.partial = strings [ "List.hd"; "Option.get" ] });
  Alcotest.(check bool) "literal Array.get fine" true
    (Eff.equal_effects (effect_of "let f a = Array.get a 0\n") Eff.empty);
  Alcotest.(check bool) "computed Array.get partial" true
    (Eff.Strings.mem "Array.get" (effect_of "let f a i = Array.get a i\n").Eff.partial);
  Alcotest.(check bool) "raise" true (effect_of "let f () = failwith \"x\"\n").Eff.raises;
  Alcotest.(check bool) "raise Exit local" false (effect_of "let f () = raise Exit\n").Eff.raises;
  Alcotest.(check bool) "locally handled exn" false
    (effect_of "let f () = try g (raise Overflow) with Overflow -> 0\n").Eff.raises;
  Alcotest.(check bool) "clock nondet" true
    (Eff.Strings.mem "Unix.gettimeofday" (effect_of "let now () = Unix.gettimeofday ()\n").Eff.nondet);
  Alcotest.(check bool) "io" true (effect_of "let f () = print_endline \"hi\"\n").Eff.io

let test_effect_sorted_fold () =
  let bare = effect_of "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n" in
  Alcotest.(check bool) "bare fold is nondet" true (Eff.Strings.mem "Hashtbl.fold" bare.Eff.nondet);
  let sorted =
    effect_of
      "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort Int.compare\n"
  in
  Alcotest.(check bool) "fold-then-sort is deterministic" true
    (Eff.Strings.is_empty sorted.Eff.nondet)

let test_effect_fixpoint_transitive () =
  let g = fixture () in
  let eff = Eff.propagate g (Array.map (fun d -> Eff.base_of_body d.Cg.d_body) g.Cg.defs) in
  let id m n = (Option.get (find_def g ~module_:m ~name:n)).Cg.d_id in
  Alcotest.(check bool) "partial propagates to entry" true
    (Eff.Strings.mem "List.hd" eff.(id "Main" "()").Eff.partial);
  Alcotest.(check bool) "safe stays clean" true (Eff.equal_effects eff.(id "A" "safe") Eff.empty)

let test_effect_rules_fire () =
  let findings = Eff.analyze (fixture ()) in
  let wheres r =
    List.filter (fun f -> f.F.rule = r) findings
    |> List.map (fun f -> f.F.where)
    |> List.sort String.compare
  in
  (* Both public values on the chain are reported, each with its own
     witness. *)
  Alcotest.(check (list string))
    "partial-reachable on both public vals"
    [ "alib/a.ml:5"; "blib/b.ml:1" ]
    (wheres "partial-reachable");
  Alcotest.(check (list string)) "only safe is dead" [ "alib/a.ml:3" ] (wheres "dead-function");
  Alcotest.(check (list string)) "no nondet-export in fixture" [] (wheres "nondet-export")

let test_effect_nondet_export_rule () =
  let bad =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/export.ml"
          "let to_json h = Hashtbl.fold (fun k v acc -> acc ^ k ^ string_of_float v) h \"\"\n";
      ]
  in
  Alcotest.(check bool) "unsorted export flagged" true
    (has_rule "nondet-export" (Eff.analyze bad));
  let good =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/export.ml"
          "let to_json h =\n\
          \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []\n\
          \  |> List.sort (fun (a, _) (b, _) -> String.compare a b)\n\
          \  |> List.map snd |> List.map string_of_float |> String.concat \",\"\n";
      ]
  in
  Alcotest.(check bool) "sorted export clean" false
    (has_rule "nondet-export" (Eff.analyze good))

let test_effect_undocumented_raise_rule () =
  (* [todo] mentions @raise only in a plain comment, which documents
     nothing: only doc comments count. *)
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/r.ml"
          "let boom () = failwith \"no\"\n\nlet quiet () = failwith \"no\"\n\n\
           let todo () = failwith \"no\"\n";
        src ~lib:"alib" "alib/r.mli"
          "val boom : unit -> unit\n(** Always fails.\n    @raise Failure always. *)\n\n\
           val quiet : unit -> unit\n(** Undocumented. *)\n\n\
           val todo : unit -> unit\n(** Always fails. *)\n(* TODO: document the @raise *)\n";
      ]
  in
  let hits =
    List.filter (fun f -> f.F.rule = "undocumented-raise") (Eff.analyze g)
    |> List.map (fun f -> f.F.where)
  in
  Alcotest.(check (list string))
    "only the undocumented vals" [ "alib/r.mli:5"; "alib/r.mli:8" ] hits

(* The dead-function roots, on a tree laid out like the repository's: a
   library, an executable and a test stanza, walked as [respctl analyze
   lib --entries bin --entries test] walks them. The tests call all three
   library functions, the executable only [shared]: a test stanza roots
   nothing, whether the call sits in a function or in [let () =], yet the
   lint and doc passes still check the test tree. *)
let test_effect_test_stanzas_root_nothing () =
  let root = Filename.temp_dir "roots" "" in
  let files =
    [
      ("lib/dune", "(library\n (name rlib))\n");
      ("lib/util.ml", "let shared x = x + 1\n\nlet helper x = x * 2\n\nlet setup x = x - 1\n");
      ("bin/dune", "(executable\n (name main)\n (libraries rlib))\n");
      ("bin/main.ml", "let () = print_int (Util.shared 1)\n");
      ("test/dune", "(tests\n (names t)\n (libraries rlib))\n");
      ( "test/t.ml",
        "let check () = Util.shared (Util.helper 2)\n\n\
         (** Raw lookup.\n    @raises Not_found when absent. *)\n\
         let find h k = Hashtbl.find h k\n\n\
         let () = print_int (check () + Util.setup 3)\n" );
    ]
  in
  let path rel = Filename.concat root rel in
  List.iter (fun d -> Sys.mkdir (path d) 0o755) [ "lib"; "bin"; "test" ];
  List.iter
    (fun (rel, text) -> Out_channel.with_open_bin (path rel) (fun oc -> output_string oc text))
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (rel, _) -> Sys.remove (path rel)) files;
      List.iter (fun d -> Sys.rmdir (path d)) [ "lib"; "bin"; "test"; "" ])
    (fun () ->
      let g = Cg.build ~entries:[ path "bin"; path "test" ] [ path "lib" ] in
      let dead =
        List.filter (fun f -> f.F.rule = "dead-function") (Eff.analyze g)
        |> List.map (fun f -> f.F.message)
      in
      Alcotest.(check (list string))
        "only the test-only functions are dead"
        [ "Util.helper is unreachable from every entry point";
          "Util.setup is unreachable from every entry point" ]
        dead;
      let wheres rule fs =
        List.filter_map (fun f -> if f.F.rule = rule then Some f.F.where else None) fs
      in
      (* Lint findings carry a column, doc findings do not. *)
      Alcotest.(check (list string)) "the test tree is still linted"
        [ path "test/t.ml" ^ ":5" ]
        (wheres "hashtbl-find" (Cg.per_file g Lint.lint)
        |> List.map (fun w -> String.sub w 0 (String.rindex w ':')));
      Alcotest.(check (list string)) "and doc-checked"
        [ path "test/t.ml" ^ ":4" ]
        (wheres "doc-unknown-tag" (Cg.per_file g Check.Doc.check)))

(* Monotonicity of the shared solver: adding one edge to a random graph
   never shrinks any summary, on Effect's union lattice and on a
   clamped-max depth lattice whose edges are weighted by call-site depth
   (the shape a loop-nest summary would take). *)
let prop_fixpoint_monotone =
  let n = 8 in
  let base_of_seed st i =
    let bit k = (st lsr ((4 * i) + k)) land 1 = 1 in
    {
      Eff.raises = bit 0;
      Eff.partial = (if bit 1 then strings [ "List.hd" ] else Eff.Strings.empty);
      Eff.nondet = (if bit 2 then strings [ "Hashtbl.fold" ] else Eff.Strings.empty);
      Eff.io = bit 3;
    }
  in
  let clamp v = min v 3 in
  QCheck.Test.make ~name:"effect fixpoint is monotone in the edge set" ~count:200
    QCheck.(triple (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)) (pair (int_bound (n - 1)) (int_bound (n - 1))))
    (fun (bseed, eseed, (extra_src, extra_dst)) ->
      let edges i =
        (* A deterministic pseudo-random adjacency from the seed. *)
        List.filter (fun j -> (eseed lsr ((3 * i) + j)) land 1 = 1) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      let edges' i = if i = extra_src then extra_dst :: edges i else edges i in
      let effects callees =
        Cg.fixpoint ~n ~init:(base_of_seed bseed) ~equal:Eff.equal_effects ~step:(fun v i ->
            List.fold_left (fun acc j -> Eff.union acc v.(j)) v.(i) (callees i))
      in
      (* Site depth 0 or 1 per edge, and a base depth 0..3, from the seeds. *)
      let depths callees =
        Cg.fixpoint ~n ~equal:Int.equal
          ~init:(fun i -> (bseed lsr (2 * i)) land 3)
          ~step:(fun v i ->
            List.fold_left
              (fun acc j -> max acc (clamp (((eseed lsr (i + j)) land 1) + v.(j))))
              v.(i) (callees i))
      in
      let before = effects edges and after = effects edges' in
      let dbefore = depths edges and dafter = depths edges' in
      let ok = ref true in
      for i = 0 to n - 1 do
        if not (Eff.leq before.(i) after.(i) && dbefore.(i) <= dafter.(i)) then ok := false
      done;
      !ok)

module Mf = Check.Manifest

let parse_ok text =
  match Mf.parse text with
  | Ok m -> m
  | Error e -> Alcotest.failf "manifest rejected: %s" (Mf.error_to_string e)

let rejects text = match Mf.parse text with Ok _ -> false | Error _ -> true

let test_budget_parse () =
  Alcotest.(check (list (pair string int)))
    "parses the budget section"
    [ ("dead-function", 3); ("undocumented-raise", 0) ]
    (parse_ok "{\n  \"budget\": {\n  \"dead-function\": 3,\n  \"undocumented-raise\": 0\n}}\n")
      .Mf.budget;
  Alcotest.(check bool) "empty object is the empty manifest" true (parse_ok " {} " = Mf.empty);
  Alcotest.(check bool) "not an object" true (rejects "[]");
  Alcotest.(check bool) "budget beyond max_int" true
    (rejects "{\"budget\": {\"dead-function\": 99999999999999999999999}}");
  Alcotest.(check bool) "negative budget" true (rejects "{\"budget\": {\"dead-function\": -1}}");
  Alcotest.(check bool) "unknown section" true (rejects "{\"dead-function\": 0}");
  Alcotest.(check bool) "trailing bytes" true (rejects "{} x")

(* Totality, the way the wire decoder is fuzzed: random bytes and byte
   mutations of the committed manifest parse to [Ok] or a typed error
   whose offset lies inside the input, and never raise. *)
let prop_manifest_total =
  let committed = Lint.read_file "../check/analyze.json" in
  let n = String.length committed in
  let gen =
    let open QCheck.Gen in
    oneof
      [
        string_size ~gen:char (int_range 0 64);
        ( int_range 0 (n - 1) >>= fun pos ->
          int_range 1 255 >>= fun flip ->
          int_range 0 n >>= fun keep ->
          let b = Bytes.of_string committed in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
          return (Bytes.sub_string b 0 keep) );
      ]
  in
  QCheck.Test.make ~name:"manifest parser is total on junk" ~count:1000 (QCheck.make gen)
    (fun s ->
      match Mf.parse s with
      | Ok (_ : Mf.t) -> true
      | Error (e : Mf.error) -> e.Mf.offset >= 0 && e.Mf.offset <= String.length s)

let test_cg_attributed_defs () =
  (* [let[@inline] f] and [let%ext f] are definitions: the lexer folds the
     attribute into one token and def_name skips it (and the extension
     point) to the binding name. *)
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/att.ml"
          "let[@inline] double x = x * 2\n\n\
           let[@warning \"-32\"] rec count n = if n = 0 then 0 else count (n - 1)\n\n\
           let use x = double (count x)\n";
      ]
  in
  let id n = (Option.get (find_def g ~module_:"Att" ~name:n)).Cg.d_id in
  Alcotest.(check (list int))
    "use calls both attributed defs"
    (List.sort Int.compare [ id "double"; id "count" ])
    (List.sort Int.compare (List.filter (fun i -> i <> id "use") g.Cg.callees.(id "use")))

let test_budget_ratchet () =
  let warn rule = F.v ~severity:F.Warn ~rule ~where:"x:1" "w" in
  let findings = [ warn "dead-function"; warn "dead-function"; warn "undocumented-raise" ] in
  Alcotest.(check int) "within budget -> no finding" 0
    (List.length
       (Mf.over_budget ~budget:[ ("dead-function", 2); ("undocumented-raise", 1) ] findings));
  let over = Mf.over_budget ~budget:[ ("dead-function", 1) ] findings in
  Alcotest.(check (list string)) "both rules over" [ "budget-exceeded"; "budget-exceeded" ]
    (List.map (fun f -> f.F.rule) over);
  Alcotest.(check bool) "budget violations are errors" true
    (List.for_all (fun f -> f.F.severity = F.Error) over)

(* ------------------------------- share ------------------------------- *)

module Sh = Check.Share

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Two libraries with known shared state: an unguarded counter (written by
   [bump], read by [peek]), an unguarded PRNG stream drawn by [draw] and
   [roll], and a pure function. *)
let share_fixture () =
  Cg.build_sources
    [
      src ~lib:"slib" "slib/store.ml"
        "let count = ref 0\n\nlet bump () = incr count\n\nlet tick () = bump ()\n\n\
         let peek () = !count\n\nlet pure x = x + 1\n";
      src ~lib:"slib" "slib/draw.ml"
        "let stream = Eutil.Prng.create 7\n\nlet draw () = Eutil.Prng.float stream 1.0\n\n\
         let roll () = draw ()\n";
      src ~entry:true ~lib:"main" "bin/smain.ml"
        "let () =\n  Store.tick ();\n  ignore (Store.peek ());\n  ignore (Draw.roll ());\n\
        \  ignore (Store.pure 1)\n";
    ]

let share_root a name =
  match Array.to_list (Sh.roots a) |> List.find_opt (fun r -> r.Sh.r_name = name) with
  | Some r -> r
  | None -> Alcotest.failf "root %s not harvested" name

let test_share_roots () =
  let a = Sh.audit (share_fixture ()) in
  let count = share_root a "Store.count" in
  Alcotest.(check bool) "counter is mutable" true (count.Sh.r_kind = Sh.Mutable);
  Alcotest.(check bool) "counter unguarded" false count.Sh.r_guarded;
  Alcotest.(check string) "counter located" "slib/store.ml" count.Sh.r_file;
  Alcotest.(check int) "counter line" 1 count.Sh.r_line;
  let stream = share_root a "Draw.stream" in
  Alcotest.(check bool) "stream is a PRNG root" true (stream.Sh.r_kind = Sh.Prng);
  let random = share_root a "Stdlib.Random" in
  Alcotest.(check bool) "ambient Random is builtin" true (random.Sh.r_def = -1);
  (* Functions never become roots, only value bindings do. *)
  Alcotest.(check int) "exactly three roots" 3 (Array.length (Sh.roots a))

(* The lattice Domain_safe < Reader < Writer over a def's transitive root
   sets: Writer if it can write some root, Reader if it can only read. *)
type klass = Domain_safe | Reader | Writer

let classify a i =
  if Sh.writes a i <> [] then Writer else if Sh.reads a i <> [] then Reader else Domain_safe

let test_share_classify () =
  let g = share_fixture () in
  let a = Sh.audit g in
  let id m n = (Option.get (find_def g ~module_:m ~name:n)).Cg.d_id in
  Alcotest.(check bool) "bump writes" true (classify a (id "Store" "bump") = Writer);
  Alcotest.(check bool) "tick writes transitively" true
    (classify a (id "Store" "tick") = Writer);
  Alcotest.(check bool) "peek only reads" true (classify a (id "Store" "peek") = Reader);
  Alcotest.(check bool) "pure is domain-safe" true
    (classify a (id "Store" "pure") = Domain_safe);
  Alcotest.(check bool) "draw writes its stream" true
    (classify a (id "Draw" "draw") = Writer);
  Alcotest.(check bool) "the entry point writes everything" true
    (classify a (id "Smain" "()") = Writer);
  (* The counter's own initialiser is neither a read nor a write. *)
  Alcotest.(check bool) "the binding itself is safe" true
    (classify a (id "Store" "count") = Domain_safe);
  let count = (share_root a "Store.count").Sh.r_id in
  let stream = (share_root a "Draw.stream").Sh.r_id in
  Alcotest.(check (list int)) "bump's write set" [ count ] (Sh.writes a (id "Store" "bump"));
  Alcotest.(check (list int)) "peek's read set" [ count ] (Sh.reads a (id "Store" "peek"));
  Alcotest.(check bool) "entry reaches both roots" true
    (let ws = Sh.writes a (id "Smain" "()") in
     List.mem count ws && List.mem stream ws)

let share_findings ?manifest sources rule =
  List.filter (fun f -> f.F.rule = rule) (Sh.analyze ?manifest (Cg.build_sources sources))
  |> List.map (fun f -> f.F.message)

let test_share_unguarded_global () =
  let msgs =
    share_findings
      [
        src ~lib:"slib" "slib/store.ml" "let count = ref 0\n\nlet bump () = incr count\n";
      ]
      "unguarded-global"
  in
  Alcotest.(check int) "written unguarded root warns" 1 (List.length msgs);
  Alcotest.(check bool) "message names the root" true
    (List.exists
       (fun m ->
         String.length m > 0
         && String.length (String.concat "" [ m ]) > 0
         && contains_sub m "Store.count")
       msgs)

let test_share_guarded_silent () =
  (* Same counter, but the owning file shows a Mutex discipline: guarded,
     so neither unguarded-global nor shared-write-reachable fires. *)
  let sources =
    [
      src ~lib:"slib" "slib/store.ml"
        "let lock = Mutex.create ()\n\nlet count = ref 0\n\n\
         let bump () = Mutex.lock lock;\n  incr count;\n  Mutex.unlock lock\n";
    ]
  in
  Alcotest.(check (list string)) "guarded root stays silent" []
    (share_findings sources "unguarded-global");
  Alcotest.(check (list string)) "guarded root certifiable" []
    (share_findings ~manifest:[ ("w", [ "Store.bump" ]) ] sources "shared-write-reachable")

let test_share_readonly_silent () =
  (* Allocated but never mutated: shared read-only data, not a hazard. *)
  let sources =
    [
      src ~lib:"slib" "slib/table.ml"
        "let table = Hashtbl.create 16\n\nlet get k = Hashtbl.find_opt table k\n";
    ]
  in
  Alcotest.(check (list string)) "unwritten root stays silent" []
    (share_findings sources "unguarded-global")

let test_share_write_reachable () =
  let sources =
    [
      src ~lib:"slib" "slib/store.ml"
        "let count = ref 0\n\nlet bump () = incr count\n\nlet tick () = bump ()\n";
    ]
  in
  let msgs =
    share_findings ~manifest:[ ("workers", [ "Store.tick" ]) ] sources "shared-write-reachable"
  in
  Alcotest.(check int) "one certified entrypoint, one root" 1 (List.length msgs);
  Alcotest.(check bool) "witness chain reaches the writer" true
    (contains_sub (List.hd msgs) "Store.tick -> Store.bump")

let test_share_prng_rules () =
  let sources =
    [
      src ~lib:"slib" "slib/draw.ml"
        "let stream = Eutil.Prng.create 7\n\nlet draw () = Eutil.Prng.float stream 1.0\n\n\
         let roll () = draw ()\n";
    ]
  in
  (* One entrypoint drawing from the stream: a race (it is unguarded) but
     not a sharing violation. *)
  Alcotest.(check (list string)) "single user: no prng-shared" []
    (share_findings ~manifest:[ ("w", [ "Draw.draw" ]) ] sources "prng-shared");
  let msgs =
    share_findings
      ~manifest:[ ("w", [ "Draw.draw"; "Draw.roll" ]) ]
      sources "prng-shared"
  in
  Alcotest.(check int) "two users: prng-shared fires" 1 (List.length msgs);
  Alcotest.(check bool) "both entrypoints named" true
    (contains_sub (List.hd msgs) "Draw.draw"
    && contains_sub (List.hd msgs) "Draw.roll")

let test_share_ambient_random () =
  (* The ambient Stdlib.Random state is a builtin unguarded PRNG root. *)
  let sources =
    [ src ~lib:"slib" "slib/jit.ml" "let jitter () = Random.float 1.0\n" ]
  in
  let msgs =
    share_findings ~manifest:[ ("w", [ "Jit.jitter" ]) ] sources "shared-write-reachable"
  in
  Alcotest.(check int) "Random use under an entrypoint is an error" 1 (List.length msgs);
  Alcotest.(check bool) "names the ambient root" true
    (contains_sub (List.hd msgs) "Stdlib.Random")

let test_share_manifest_errors () =
  let sources = [ src ~lib:"slib" "slib/a.ml" "let f x = x + 1\n" ] in
  let msgs =
    share_findings ~manifest:[ ("w", [ "Nope.nothing" ]) ] sources "parallel-manifest"
  in
  Alcotest.(check int) "unresolvable entrypoint is an error" 1 (List.length msgs);
  let all = Sh.analyze ~manifest:[ ("w", [ "Nope.nothing" ]) ] (Cg.build_sources sources) in
  Alcotest.(check bool) "and it is Error severity" true
    (List.for_all (fun f -> f.F.severity = F.Error)
       (List.filter (fun f -> f.F.rule = "parallel-manifest") all));
  let elsewhere =
    Sh.analyze ~where:"other.json" ~manifest:[ ("w", [ "Nope.nothing" ]) ] (Cg.build_sources sources)
  in
  Alcotest.(check (list string)) "the finding points at the manifest given" [ "other.json" ]
    (List.filter_map
       (fun f -> if f.F.rule = "parallel-manifest" then Some f.F.where else None)
       elsewhere)

let test_share_manifest_parse () =
  let m =
    parse_ok
      "{\"parallel\": {\n  \"chaos\": [\"Harness.run_trial\"],\n  \"pairs\": [\"Failover.pair_path\", \"X.y\"]\n},\n\
       \"cost\": {\"hot\": []}, \"locks\": {\"order\": [\"A.m\"]}}"
  in
  Alcotest.(check (list (pair string (list string))))
    "parses regions"
    [ ("chaos", [ "Harness.run_trial" ]); ("pairs", [ "Failover.pair_path"; "X.y" ]) ]
    m.Mf.parallel;
  Alcotest.(check (list (pair string (list string)))) "cost section" [ ("hot", []) ] m.Mf.cost;
  Alcotest.(check (list (pair string (list string)))) "locks section" [ ("order", [ "A.m" ]) ]
    m.Mf.locks;
  Alcotest.(check bool) "region must map to an array" true
    (rejects "{\"parallel\": {\"chaos\": \"Harness.run_trial\"}}");
  Alcotest.(check bool) "unterminated string" true (rejects "{\"parallel\": {\"chaos")

let test_share_rules_catalogue () =
  let ids = rule_ids_of Sh.rules in
  Alcotest.(check (list string))
    "all four rules listed"
    [ "shared-write-reachable"; "unguarded-global"; "prng-shared"; "parallel-manifest" ]
    ids

(* ------------------------------- cost ------------------------------- *)

module Co = Check.Cost

let cost_rule ?manifest rule sources =
  List.filter (fun f -> f.F.rule = rule) (Co.analyze ?manifest (Cg.build_sources sources))

(* The lexical loop depth of the one [@] in a definition, as the
   [quadratic-list-op] message prints it; 0 when the rule stays silent,
   which it does outside every loop. *)
let append_depth def =
  match cost_rule "quadratic-list-op" [ src ~lib:"clib" "clib/c.ml" (def ^ "\n") ] with
  | [] -> 0
  | [ f ] -> Scanf.sscanf f.F.message "%s at loop depth %d" (fun _ d -> d)
  | fs -> Alcotest.failf "expected at most 1 quadratic finding, got %d" (List.length fs)

let test_cost_depths () =
  Alcotest.(check int) "for body" 1 (append_depth "let f xs = for i = 0 to 9 do work (xs @ i) done");
  Alcotest.(check int) "after done" 0
    (append_depth "let f xs = for i = 0 to 9 do step i done; xs @ xs");
  Alcotest.(check int) "hof span" 1 (append_depth "let f xs = List.iter (fun x -> work (x @ xs)) xs");
  Alcotest.(check int) "after in" 0 (append_depth "let f xs = let ys = List.map g xs in ys @ xs");
  Alcotest.(check int) "nested hofs" 2
    (append_depth "let f xs ys = List.iter (fun x -> List.iter (fun y -> work (y @ x)) ys) xs");
  Alcotest.(check int) "rec body" 1 (append_depth "let rec loop x = work (loop (x @ x))");
  Alcotest.(check int) "scalar module map" 0
    (append_depth "let f o ys = Option.map (fun x -> x @ ys) o")

let test_cost_quadratic_rule () =
  let bad = [ src ~lib:"clib" "clib/c.ml" "let join xs ys = List.map (fun x -> x @ ys) xs\n" ] in
  (match cost_rule "quadratic-list-op" bad with
  | [ f ] ->
      Alcotest.(check bool) "names the prim" true (contains_sub f.F.message "@");
      Alcotest.(check bool) "is an error" true (f.F.severity = F.Error)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 quadratic finding, got %d" (List.length fs)));
  (* [( *@ )] in operator-name position is not list append. *)
  let op =
    [
      src ~lib:"clib" "clib/c.ml"
        "let total xs = List.fold_left (fun acc x -> U.( *@ ) acc x) zero xs\n";
    ]
  in
  Alcotest.(check int) "operator position exempt" 0
    (List.length (cost_rule "quadratic-list-op" op))

let test_cost_rebuild_rule () =
  let bad =
    [ src ~lib:"clib" "clib/c.ml" "let f xs = List.map (fun _ -> Hashtbl.create 4) xs\n" ]
  in
  Alcotest.(check int) "Hashtbl.create in loop flagged" 1
    (List.length (cost_rule "rebuild-in-loop" bad));
  (* Array.init is the sanctioned escape hatch for per-item allocation. *)
  let ok =
    [ src ~lib:"clib" "clib/c.ml" "let f n xs = List.map (fun x -> Array.init n (fun i -> i + x)) xs\n" ]
  in
  Alcotest.(check int) "Array.init exempt" 0 (List.length (cost_rule "rebuild-in-loop" ok))

let test_cost_fixed_idioms () =
  (* Regression guards for the shapes eliminated across lib/ in this
     change: each original is flagged, its replacement idiom is clean. *)
  let count rule text = List.length (cost_rule rule [ src ~lib:"clib" "clib/c.ml" text ]) in
  (* Path.pp: inline Array.to_list inside a String.concat span vs hoisted. *)
  Alcotest.(check int) "inline to_list flagged" 1
    (count "rebuild-in-loop" "let pp names g = String.concat \"-\" (Array.to_list (Array.map g names))\n");
  Alcotest.(check int) "hoisted to_list clean" 0
    (count "rebuild-in-loop"
       "let pp names g = let parts = Array.to_list (Array.map g names) in String.concat \"-\" parts\n");
  (* Yen: ban table rebuilt per spur iteration vs hoisted + reset. *)
  Alcotest.(check int) "per-iteration table flagged" 1
    (count "rebuild-in-loop" "let f n = for _ = 0 to n do ignore (Hashtbl.create 8) done\n");
  Alcotest.(check int) "hoisted + reset clean" 0
    (count "rebuild-in-loop"
       "let f n = let banned = Hashtbl.create 8 in for _ = 0 to n do Hashtbl.reset banned done\n");
  (* Append-accumulation vs cons + reverse. *)
  Alcotest.(check int) "append in loop flagged" 1
    (count "quadratic-list-op"
       "let f xs = let acc = ref [] in List.iter (fun x -> acc := !acc @ [ x ]) xs; !acc\n");
  Alcotest.(check int) "cons + rev clean" 0
    (count "quadratic-list-op"
       "let f xs = let acc = ref [] in List.iter (fun x -> acc := x :: !acc) xs; List.rev !acc\n")

let test_cost_hot_rule () =
  let sources =
    [
      src ~lib:"clib" "clib/hot.ml"
        "let step x = Array.copy x\n\nlet run xs = List.iter (fun x -> ignore (step x)) xs\n";
    ]
  in
  (* Without a hot declaration the per-iteration allocation is silent. *)
  Alcotest.(check int) "silent when not hot" 0
    (List.length (cost_rule "alloc-in-hot-loop" sources));
  match cost_rule ~manifest:[ ("hot", [ "Hot.run" ]) ] "alloc-in-hot-loop" sources with
  | [ f ] ->
      Alcotest.(check bool) "is a warning" true (f.F.severity = F.Warn);
      Alcotest.(check bool) "names the entrypoint" true
        (contains_sub f.F.message "Hot.run")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 hot warning, got %d" (List.length fs))

let test_cost_memo_rule () =
  let run memo text =
    cost_rule ~manifest:[ ("memo", [ memo ]) ] "memo-unsafe"
      [ src ~lib:"clib" "clib/m.ml" text ]
  in
  (* Uncancelled Hashtbl.iter: nondeterministic. *)
  (match run "M.f" "let f tbl = Hashtbl.iter (fun k _ -> ignore k) tbl\n" with
  | [ f ] ->
      Alcotest.(check bool) "mentions Hashtbl.iter" true
        (contains_sub f.F.message "Hashtbl.iter")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 nondet finding, got %d" (List.length fs)));
  (* The fold-then-sort idiom certifies: the sorter must follow the fold. *)
  Alcotest.(check int) "fold-then-sort clean" 0
    (List.length
       (run "M.g"
          "let g tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare\n"));
  (* Partiality through a callee. *)
  (match run "M.m" "let h xs = List.hd xs\n\nlet m xs = h xs\n" with
  | [ f ] ->
      Alcotest.(check bool) "mentions List.hd" true (contains_sub f.F.message "List.hd");
      Alcotest.(check bool) "witness chain through h" true
        (contains_sub f.F.message "M.h")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 partial finding, got %d" (List.length fs)));
  (* A direct raise in the memoized body disqualifies it. *)
  (match run "M.r" "let r x = if x < 0 then invalid_arg \"neg\" else x\n" with
  | [ f ] ->
      Alcotest.(check bool) "mentions direct raise" true
        (contains_sub f.F.message "raises directly")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 raise finding, got %d" (List.length fs)))

let test_cost_manifest_rule () =
  let sources = [ src ~lib:"clib" "clib/c.ml" "let id x = x\n" ] in
  (match cost_rule ~manifest:[ ("frozen", []) ] "cost-manifest" sources with
  | [ f ] ->
      Alcotest.(check bool) "unknown key named" true (contains_sub f.F.message "frozen")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 unknown-key error, got %d" (List.length fs)));
  match cost_rule ~manifest:[ ("memo", [ "Nope.nothing" ]) ] "cost-manifest" sources with
  | [ f ] ->
      Alcotest.(check bool) "unresolved entry named" true
        (contains_sub f.F.message "Nope.nothing")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 unresolved error, got %d" (List.length fs))

(* Per-iteration allocation as [alloc-in-hot-loop] reports it: [fresh]
   allocates once per call, [per_row] calls it from inside a loop, and
   [outer] inherits that through a plain call. *)
let test_cost_infer_propagation () =
  let sources =
    [
      src ~lib:"clib" "clib/m.ml"
        "let fresh n = Array.make n 0\n\
         let per_row rows = List.map (fun n -> fresh n) rows\n\
         let outer rows = per_row rows\n\
         let flat xs = List.concat xs\n";
    ]
  in
  let hot name =
    cost_rule ~manifest:[ ("hot", [ name ]) ] "alloc-in-hot-loop" sources
    |> List.map (fun f -> f.F.message)
  in
  Alcotest.(check (list string)) "fresh not per-iteration by itself" [] (hot "M.fresh");
  Alcotest.(check (list string)) "a loop without allocation is silent" [] (hot "M.flat");
  Alcotest.(check (list string)) "allocation inside the loop propagates"
    [ "hot entrypoint M.per_row allocates per iteration (via M.per_row)" ]
    (hot "M.per_row");
  Alcotest.(check (list string)) "and on through a caller"
    [ "hot entrypoint M.outer allocates per iteration (via M.outer -> M.per_row)" ]
    (hot "M.outer")

let test_cost_rules_catalogue () =
  Alcotest.(check (list string)) "rule ids"
    [ "quadratic-list-op"; "rebuild-in-loop"; "alloc-in-hot-loop"; "memo-unsafe"; "cost-manifest" ]
    (rule_ids_of Co.rules)

(* ----------------------- Check.Doc (odoc stand-in) -------------------- *)

let doc_findings text = Check.Doc.check ~file:"fix.mli" (Lint.clean text)

let test_doc_clean () =
  let text =
    "val f : int -> int\n\
     (** Doubles, honouring [x @ y], a \"*)\" in a string and a\n\
     \   nested (* plain (* comment *) *) inside.\n\
     \   @raise Invalid_argument on negatives.\n\
     \   @raise Unix.Unix_error too.\n\
     \   @see <http://example.com> the spec. *)\n"
  in
  Alcotest.(check int) "well-formed docs are silent" 0 (List.length (doc_findings text))

let test_doc_raise_malformed () =
  (match doc_findings "(** Text.\n    @raise invalid_arg lowercase. *)\nval f : int\n" with
  | [ f ] ->
      Alcotest.(check string) "rule" "raise-malformed" f.F.rule;
      Alcotest.(check string) "line of the tag" "fix.mli:2" f.F.where;
      Alcotest.(check bool) "names the offender" true (contains_sub f.F.message "invalid_arg")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  match doc_findings "(** Text.\n    @raise *)\nval f : int\n" with
  | [ f ] -> Alcotest.(check string) "bare @raise is malformed" "raise-malformed" f.F.rule
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_doc_unknown_tag () =
  (match doc_findings "(** Text.\n    @raises Invalid_argument typo. *)\n" with
  | [ f ] ->
      Alcotest.(check string) "rule" "doc-unknown-tag" f.F.rule;
      Alcotest.(check bool) "names the tag" true (contains_sub f.F.message "@raises")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* A quoted string holding a comment opener is code: the doc comment
     after it is still checked. *)
  (match doc_findings "let s = {|(*|}\n(** Text.\n    @raises Invalid_argument typo. *)\n" with
  | [ f ] ->
      Alcotest.(check string) "rule after a quoted string" "doc-unknown-tag" f.F.rule;
      Alcotest.(check string) "line of the tag" "fix.mli:3" f.F.where
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* A mid-line @ (operator prose, e-mail, code span) is never a tag. *)
  Alcotest.(check int) "mid-line @ ignored" 0
    (List.length (doc_findings "(** Concatenation is [xs @ ys]; mail root@example. *)\n"))

let test_doc_unterminated () =
  match doc_findings "let x = 1\n(** Never closed...\n    @raise Failure anyway.\n" with
  | [ f ] ->
      Alcotest.(check string) "rule" "doc-unterminated" f.F.rule;
      Alcotest.(check string) "line of the opener" "fix.mli:2" f.F.where
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_doc_plain_comments_exempt () =
  (* Only (** *) doc comments are validated: a plain (* *) comment and a
     stopped (*** *) comment may say anything. *)
  Alcotest.(check int) "plain comments exempt" 0
    (List.length
       (doc_findings "(* @raises whatever *)\n(*** @raises whatever ***)\nval f : int\n"))

let test_doc_rules_catalogue () =
  Alcotest.(check (list string)) "rule ids"
    [ "raise-malformed"; "doc-unknown-tag"; "doc-unterminated" ]
    (rule_ids_of Check.Doc.rules)

(* ------------------------------- lock -------------------------------- *)

module Lk = Check.Lock

let lock_findings ?manifest sources = Lk.analyze ?manifest (Cg.build_sources sources)

(* Closure-argument resolution (Callgraph): a wrapper that applies its
   formal parameter gains call edges to bare-identifier arguments passed
   at its call sites, so reachability sees through [run task]. *)
let test_cg_closure_args () =
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/w.ml"
          "let run f = f ()\n\nlet task () = print_endline \"t\"\n\nlet go () = run task\n\n\
           let ( >>= ) m f = f m\n";
      ]
  in
  let id n = (Option.get (find_def g ~module_:"W" ~name:n)).Cg.d_id in
  let run_def = Option.get (find_def g ~module_:"W" ~name:"run") in
  let go_def = Option.get (find_def g ~module_:"W" ~name:"go") in
  Alcotest.(check (list string)) "run's params" [ "f" ] (Cg.def_params run_def);
  Alcotest.(check bool) "run applies its param" true (Cg.applies_params run_def);
  Alcotest.(check bool) "go applies nothing" false (Cg.applies_params go_def);
  (* The header scan starts past the name token, so an operator's closing
     parenthesis drops below level 0 and no parameters are collected. *)
  let bind_def = List.find (fun d -> d.Cg.d_line = 7) (Array.to_list g.Cg.defs) in
  Alcotest.(check (list string)) "operator binding has no params" [] (Cg.def_params bind_def);
  Alcotest.(check bool) "wrapper gains the closure callee" true
    (List.mem (id "task") g.Cg.callees.(id "run"))

(* Operators: the lexer splits [+:] into [+] and [:], so the graph names an
   operator definition by its full symbol and links each run of adjacent
   symbol tokens to the operator it spells. The two unused operators stay
   dead under their real names. *)
let test_cg_operators () =
  let g =
    Cg.build_sources
      [
        src ~lib:"olib" "olib/ops.ml"
          "let ( +: ) a b = a +. b\n\nlet ( -: ) a b = a -. b\n\nlet ( *: ) r x = r *. x\n\n\
           let ( *@ ) w s = w *. s\n\nlet unused x = x\n";
        src ~entry:true ~lib:"main" "bin/main.ml" "let () = ignore Ops.(1.0 +: 2.0 *@ 3.0)\n";
      ]
  in
  let dead =
    List.filter (fun f -> f.F.rule = "dead-function") (Eff.analyze g)
    |> List.map (fun f -> String.sub f.F.message 0 (String.index f.F.message ' '))
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "unused operators, by full symbol"
    [ "Ops.*:"; "Ops.-:"; "Ops.unused" ] dead

let test_cg_arg_span () =
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/sp.ml"
          "let other () = 1\n\nlet go () = run ( task 1 ) ; other ()\n";
      ]
  in
  let d = Option.get (find_def g ~module_:"Sp" ~name:"go") in
  let body = d.Cg.d_body in
  let idx t =
    let r = ref (-1) in
    Array.iteri (fun i tk -> if !r < 0 && tk.Lint.t = t then r := i) body;
    Alcotest.(check bool) ("token " ^ t ^ " present") true (!r >= 0);
    !r
  in
  (* The application span of [run] swallows the parenthesised argument and
     stops at the statement separator. *)
  Alcotest.(check int) "span ends at the semicolon" (idx ";") (Cg.arg_span body (idx "run"))

(* Lock harvest: one identity per [NAME = Mutex.create] binding, named
   by the enclosing module. *)
let test_lock_harvest () =
  let g =
    Cg.build_sources
      [
        src ~lib:"alib" "alib/st.ml"
          "let lock = Mutex.create ()\nlet s = ref 0\n\n\
           let set v = Mutex.lock lock; s := v; Mutex.unlock lock\n";
        src ~lib:"alib" "alib/rec.ml"
          "type t = { m : Mutex.t }\n\nlet make () = { m = Mutex.create () }\n\n\
           let with_m t f = Mutex.lock t.m; let r = f () in Mutex.unlock t.m; r\n";
      ]
  in
  let names = List.map (fun (n, _, _) -> n) (Lk.locks g) |> List.sort String.compare in
  Alcotest.(check (list string)) "harvested identities" [ "Rec.m"; "St.lock" ] names

let test_lock_rules_catalogue () =
  Alcotest.(check (list string)) "rule ids"
    [
      "lock-order-cycle"; "blocking-under-lock"; "lock-held-io"; "atomic-rmw"; "useless-lock";
      "lock-manifest";
    ]
    (rule_ids_of Lk.rules)

(* Two-lock AB/BA inversion: the classic deadlock, reported once with a
   two-chain witness naming both locks. *)
let test_lock_cycle_ab_ba () =
  let bad =
    "let a = Mutex.create ()\nlet b = Mutex.create ()\nlet x = ref 0\n\n\
     let f () = Mutex.lock a; Mutex.lock b; x := 1; Mutex.unlock b; Mutex.unlock a\n\n\
     let g () = Mutex.lock b; Mutex.lock a; x := 2; Mutex.unlock a; Mutex.unlock b\n"
  in
  let fs = lock_findings [ src ~lib:"alib" "alib/ord.ml" bad ] in
  Alcotest.(check (list string)) "only the cycle fires" [ "lock-order-cycle" ] (rule_ids fs);
  (match List.find_opt (fun f -> f.F.rule = "lock-order-cycle") fs with
  | Some f ->
      Alcotest.(check bool) "names both locks" true
        (contains_sub f.F.message "Ord.a" && contains_sub f.F.message "Ord.b")
  | None -> Alcotest.fail "no cycle finding");
  (* Same program, consistent a-then-b order everywhere: clean. *)
  let good =
    "let a = Mutex.create ()\nlet b = Mutex.create ()\nlet x = ref 0\n\n\
     let f () = Mutex.lock a; Mutex.lock b; x := 1; Mutex.unlock b; Mutex.unlock a\n\n\
     let g () = Mutex.lock a; Mutex.lock b; x := 2; Mutex.unlock b; Mutex.unlock a\n"
  in
  Alcotest.(check (list string)) "consistent order is clean" []
    (rule_ids (lock_findings [ src ~lib:"alib" "alib/ord.ml" good ]))

(* Three-lock cycle closed through a helper call: the c->a edge only
   exists interprocedurally (h holds c and calls a function that may
   acquire a). All three pairs are mutually reachable. *)
let test_lock_cycle_through_helper () =
  let fs =
    lock_findings
      [
        src ~lib:"alib" "alib/tri.ml"
          "let a = Mutex.create ()\nlet b = Mutex.create ()\nlet c = Mutex.create ()\n\
           let x = ref 0\n\n\
           let locks_a () = Mutex.lock a; x := 1; Mutex.unlock a\n\n\
           let f () = Mutex.lock a; Mutex.lock b; x := 1; Mutex.unlock b; Mutex.unlock a\n\n\
           let g () = Mutex.lock b; Mutex.lock c; x := 1; Mutex.unlock c; Mutex.unlock b\n\n\
           let h () = Mutex.lock c; locks_a (); Mutex.unlock c\n";
      ]
  in
  Alcotest.(check (list string)) "only cycles fire" [ "lock-order-cycle" ] (rule_ids fs);
  Alcotest.(check int) "all three pairs reported" 3 (List.length fs)

(* Mutex.protect nesting: inverted nesting is a cycle; two sequential
   protects of the same mutex (the refactor that replaces lock/unlock
   pairs) must NOT read as a re-acquire. *)
let test_lock_protect_nesting () =
  let bad =
    "let a = Mutex.create ()\nlet b = Mutex.create ()\nlet x = ref 0\n\n\
     let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> x := 1))\n\n\
     let g () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> x := 2))\n"
  in
  Alcotest.(check (list string)) "inverted protect nesting cycles" [ "lock-order-cycle" ]
    (rule_ids (lock_findings [ src ~lib:"alib" "alib/pn.ml" bad ]));
  let sequential =
    "let a = Mutex.create ()\nlet x = ref 0\nlet y = ref 0\n\n\
     let f () =\n  Mutex.protect a (fun () -> x := 1);\n  Mutex.protect a (fun () -> y := 2)\n"
  in
  Alcotest.(check (list string)) "sequential protects of one mutex are clean" []
    (rule_ids (lock_findings [ src ~lib:"alib" "alib/pn.ml" sequential ]))

(* OCaml mutexes are not reentrant: a re-acquire while held is reported
   as a direct deadlock. *)
let test_lock_self_reacquire () =
  let fs =
    lock_findings
      [
        src ~lib:"alib" "alib/re.ml"
          "let a = Mutex.create ()\nlet x = ref 0\n\n\
           let f () = Mutex.lock a; Mutex.lock a; x := 1; Mutex.unlock a; Mutex.unlock a\n";
      ]
  in
  Alcotest.(check (list string)) "re-acquire fires" [ "lock-order-cycle" ] (rule_ids fs);
  match fs with
  | [ f ] -> Alcotest.(check bool) "says re-acquires" true (contains_sub f.F.message "re-acquires")
  | _ -> Alcotest.fail "expected exactly one finding"

let blocking_src =
  "let jl = Mutex.create ()\n\n\
   let flush fd = Mutex.lock jl; Unix.fsync fd; Mutex.unlock jl\n"

(* Blocking primitive under a lock: warn by default, silenced by an
   io_locks manifest entry, escalated to an error on the hot path. *)
let test_lock_blocking_under_lock () =
  let fs = lock_findings [ src ~lib:"serveix" "serveix/jm.ml" blocking_src ] in
  (match fs with
  | [ f ] ->
      Alcotest.(check string) "rule" "blocking-under-lock" f.F.rule;
      Alcotest.(check bool) "warn severity" true (f.F.severity = F.Warn);
      Alcotest.(check bool) "names the primitive and the lock" true
        (contains_sub f.F.message "Unix.fsync" && contains_sub f.F.message "Jm.jl")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check (list string)) "io_locks exemption silences it" []
    (rule_ids
       (lock_findings
          ~manifest:[ ("io_locks", [ "Jm.jl" ]) ]
          [ src ~lib:"serveix" "serveix/jm.ml" blocking_src ]))

let test_lock_held_io_hot () =
  let fs =
    lock_findings
      ~manifest:[ ("hot", [ "Jm.flush" ]) ]
      [ src ~lib:"serveix" "serveix/jm.ml" blocking_src ]
  in
  match fs with
  | [ f ] ->
      Alcotest.(check string) "escalated rule" "lock-held-io" f.F.rule;
      Alcotest.(check bool) "error severity" true (f.F.severity = F.Error)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

(* Blocking reached through a wrapper: the lock is held by [locked],
   the sleep lives in the caller's inline closure. The wrapper summary
   replays the lock over the argument span. *)
let test_lock_blocking_via_wrapper () =
  let fs =
    lock_findings
      [
        src ~lib:"alib" "alib/wr.ml"
          "let m = Mutex.create ()\nlet s = ref 0\n\n\
           let locked f = Mutex.lock m; s := 1; let r = f () in Mutex.unlock m; r\n\n\
           let bad () = locked (fun () -> Unix.sleep 1)\n";
      ]
  in
  Alcotest.(check bool) "closure body scanned under the wrapper's lock" true
    (has_rule "blocking-under-lock" fs);
  Alcotest.(check bool) "no spurious cycle" false (has_rule "lock-order-cycle" fs)

(* Atomic read-modify-write discipline. *)
let test_lock_atomic_rmw () =
  let fires txt =
    has_rule "atomic-rmw" (lock_findings [ src ~lib:"alib" "alib/at.ml" txt ])
  in
  Alcotest.(check bool) "inline get-then-set fires" true
    (fires "let c = Atomic.make 0\n\nlet bump () = Atomic.set c (Atomic.get c + 1)\n");
  Alcotest.(check bool) "get-through-binder fires" true
    (fires
       "let c = Atomic.make 0\n\n\
        let bump () =\n  let cur = Atomic.get c in\n  Atomic.set c (cur + 1)\n");
  Alcotest.(check bool) "CAS retry loop is clean" false
    (fires
       "let c = Atomic.make 0\n\n\
        let rec bump () =\n  let cur = Atomic.get c in\n\
       \  if not (Atomic.compare_and_set c cur (cur + 1)) then bump ()\n");
  Alcotest.(check bool) "serialised under a lock is clean" false
    (fires
       "let m = Mutex.create ()\nlet c = Atomic.make 0\n\n\
        let bump () = Mutex.lock m; Atomic.set c (Atomic.get c + 1); Mutex.unlock m\n");
  Alcotest.(check bool) "Fun.protect save/restore is clean" false
    (fires
       "let c = Atomic.make 0\n\n\
        let with_saved f =\n  let saved = Atomic.get c in\n\
       \  Fun.protect ~finally:(fun () -> Atomic.set c saved) f\n")

(* A lock that guards nothing, and one that is never taken. *)
let test_lock_useless () =
  let fs =
    lock_findings
      [
        src ~lib:"alib" "alib/ul.ml"
          "let u = Mutex.create ()\n\nlet nothing () = Mutex.lock u; Mutex.unlock u\n";
      ]
  in
  (match fs with
  | [ f ] ->
      Alcotest.(check string) "rule" "useless-lock" f.F.rule;
      Alcotest.(check bool) "guards nothing" true (contains_sub f.F.message "guard nothing")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  let fs =
    lock_findings
      [ src ~lib:"alib" "alib/ul.ml" "let never = Mutex.create ()\nlet live () = 1\n" ]
  in
  (match fs with
  | [ f ] -> Alcotest.(check bool) "never acquired" true (contains_sub f.F.message "never acquired")
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check (list string)) "a guarded mutation is clean" []
    (rule_ids
       (lock_findings
          [
            src ~lib:"alib" "alib/ul.ml"
              "let m = Mutex.create ()\nlet s = ref 0\n\n\
               let set v = Mutex.lock m; s := v; Mutex.unlock m\n";
          ]))

(* Manifest validation: unknown keys, dangling lock and entrypoint
   names, and a certified-surface lock missing from the order. *)
let test_lock_manifest_errors () =
  let one_lock =
    src ~lib:"alib" "alib/mf.ml"
      "let m = Mutex.create ()\nlet s = ref 0\n\nlet set v = Mutex.lock m; s := v; Mutex.unlock m\n"
  in
  let err manifest needle =
    let fs = lock_findings ~manifest [ one_lock ] in
    match List.find_opt (fun f -> f.F.rule = "lock-manifest") fs with
    | Some f -> Alcotest.(check bool) ("mentions " ^ needle) true (contains_sub f.F.message needle)
    | None -> Alcotest.fail ("no lock-manifest finding for " ^ needle)
  in
  err [ ("bogus", []) ] "unknown manifest key";
  err [ ("order", [ "Nope.x" ]) ] "does not name a known mutex";
  err [ ("hot", [ "Nope.f" ]) ] "does not resolve";
  err [ ("surface", [ "Mf" ]) ] "missing from the declared \"order\"";
  (* A surface lock that IS in the order passes. *)
  Alcotest.(check (list string)) "surface covered by order is clean" []
    (rule_ids
       (lock_findings ~manifest:[ ("order", [ "Mf.m" ]); ("surface", [ "Mf" ]) ] [ one_lock ]))

let () =
  Alcotest.run "check"
    [
      ( "srclint",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "hashtbl-find" `Quick test_hashtbl_find;
          Alcotest.test_case "catchall-try" `Quick test_catchall_try;
          Alcotest.test_case "list-nth" `Quick test_list_nth;
          Alcotest.test_case "pragma suppression" `Quick test_pragma_suppression;
          Alcotest.test_case "locations and severity" `Quick test_locations_and_severity;
          Alcotest.test_case "rules catalogue" `Quick test_rules_catalogue;
          Alcotest.test_case "report formats" `Quick test_report_formats;
          Alcotest.test_case "lexer string edges" `Quick test_lexer_string_edges;
          Alcotest.test_case "lexer char literals" `Quick test_lexer_char_literals;
          Alcotest.test_case "lexer numbers and ops" `Quick test_lexer_numbers_and_ops;
          Alcotest.test_case "lexer attributes" `Quick test_lexer_attributes;
        ] );
      ( "flow",
        [
          Alcotest.test_case "div-unguarded" `Quick test_flow_div_unguarded;
          Alcotest.test_case "div guards" `Quick test_flow_div_guards;
          Alcotest.test_case "nan-compare" `Quick test_flow_nan_compare;
          Alcotest.test_case "magic-unit" `Quick test_flow_magic_unit;
          Alcotest.test_case "unit-relabel" `Quick test_flow_unit_relabel;
          Alcotest.test_case "pragmas and catalogue" `Quick test_flow_pragmas_and_catalogue;
          Alcotest.test_case "rule classes distinct" `Quick test_flow_rule_classes_distinct;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "graph clean" `Quick test_graph_clean;
          Alcotest.test_case "path valid" `Quick test_path_valid;
          Alcotest.test_case "path discontiguous" `Quick test_path_discontiguous;
          Alcotest.test_case "path endpoint" `Quick test_path_endpoint;
          Alcotest.test_case "path loop" `Quick test_path_loop;
          Alcotest.test_case "table coverage" `Quick test_table_coverage;
          Alcotest.test_case "table duplicate pair" `Quick test_table_duplicate_pair;
          Alcotest.test_case "table on-demand dup" `Quick test_table_ondemand_dup;
          Alcotest.test_case "table failover overlap" `Quick test_table_failover_overlap;
          Alcotest.test_case "lp model" `Quick test_lp_model;
          Alcotest.test_case "traffic matrix" `Quick test_traffic_matrix;
          Alcotest.test_case "power model" `Quick test_power_model;
          Alcotest.test_case "framework validates" `Quick test_framework_validates;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "defs and visibility" `Quick test_cg_defs;
          Alcotest.test_case "edges and witness" `Quick test_cg_edges;
          Alcotest.test_case "submodule and alias" `Quick test_cg_submodule_and_alias;
          Alcotest.test_case "@raise doc harvest" `Quick test_cg_raise_doc;
          Alcotest.test_case "attributed defs" `Quick test_cg_attributed_defs;
          Alcotest.test_case "closure arguments" `Quick test_cg_closure_args;
          Alcotest.test_case "dead-function sees operators" `Quick test_cg_operators;
          Alcotest.test_case "argument spans" `Quick test_cg_arg_span;
        ] );
      ( "effect",
        [
          Alcotest.test_case "base effects" `Quick test_effect_base;
          Alcotest.test_case "sorted-fold idiom" `Quick test_effect_sorted_fold;
          Alcotest.test_case "fixpoint transitive" `Quick test_effect_fixpoint_transitive;
          Alcotest.test_case "rules on fixture" `Quick test_effect_rules_fire;
          Alcotest.test_case "nondet-export rule" `Quick test_effect_nondet_export_rule;
          Alcotest.test_case "undocumented-raise rule" `Quick test_effect_undocumented_raise_rule;
          Alcotest.test_case "test stanzas root nothing" `Quick
            test_effect_test_stanzas_root_nothing;
          QCheck_alcotest.to_alcotest prop_fixpoint_monotone;
        ] );
      ( "budget",
        [
          Alcotest.test_case "parse" `Quick test_budget_parse;
          Alcotest.test_case "ratchet" `Quick test_budget_ratchet;
          QCheck_alcotest.to_alcotest prop_manifest_total;
        ] );
      ( "share",
        [
          Alcotest.test_case "roots" `Quick test_share_roots;
          Alcotest.test_case "classify" `Quick test_share_classify;
          Alcotest.test_case "unguarded-global" `Quick test_share_unguarded_global;
          Alcotest.test_case "guarded silent" `Quick test_share_guarded_silent;
          Alcotest.test_case "read-only silent" `Quick test_share_readonly_silent;
          Alcotest.test_case "shared-write-reachable" `Quick test_share_write_reachable;
          Alcotest.test_case "prng-shared" `Quick test_share_prng_rules;
          Alcotest.test_case "ambient Random" `Quick test_share_ambient_random;
          Alcotest.test_case "manifest errors" `Quick test_share_manifest_errors;
          Alcotest.test_case "manifest parse" `Quick test_share_manifest_parse;
          Alcotest.test_case "rules catalogue" `Quick test_share_rules_catalogue;
        ] );
      ( "cost",
        [
          Alcotest.test_case "lexical depths" `Quick test_cost_depths;
          Alcotest.test_case "quadratic-list-op" `Quick test_cost_quadratic_rule;
          Alcotest.test_case "rebuild-in-loop" `Quick test_cost_rebuild_rule;
          Alcotest.test_case "fixed idioms stay fixed" `Quick test_cost_fixed_idioms;
          Alcotest.test_case "alloc-in-hot-loop" `Quick test_cost_hot_rule;
          Alcotest.test_case "memo-unsafe" `Quick test_cost_memo_rule;
          Alcotest.test_case "cost-manifest" `Quick test_cost_manifest_rule;
          Alcotest.test_case "infer propagation" `Quick test_cost_infer_propagation;
          Alcotest.test_case "rules catalogue" `Quick test_cost_rules_catalogue;
        ] );
      ( "lock",
        [
          Alcotest.test_case "harvest" `Quick test_lock_harvest;
          Alcotest.test_case "rules catalogue" `Quick test_lock_rules_catalogue;
          Alcotest.test_case "ab/ba cycle" `Quick test_lock_cycle_ab_ba;
          Alcotest.test_case "cycle through helper" `Quick test_lock_cycle_through_helper;
          Alcotest.test_case "protect nesting" `Quick test_lock_protect_nesting;
          Alcotest.test_case "self re-acquire" `Quick test_lock_self_reacquire;
          Alcotest.test_case "blocking-under-lock" `Quick test_lock_blocking_under_lock;
          Alcotest.test_case "lock-held-io on hot path" `Quick test_lock_held_io_hot;
          Alcotest.test_case "blocking via wrapper" `Quick test_lock_blocking_via_wrapper;
          Alcotest.test_case "atomic-rmw" `Quick test_lock_atomic_rmw;
          Alcotest.test_case "useless-lock" `Quick test_lock_useless;
          Alcotest.test_case "manifest errors" `Quick test_lock_manifest_errors;
        ] );
      ( "doc",
        [
          Alcotest.test_case "clean docs silent" `Quick test_doc_clean;
          Alcotest.test_case "raise-malformed" `Quick test_doc_raise_malformed;
          Alcotest.test_case "doc-unknown-tag" `Quick test_doc_unknown_tag;
          Alcotest.test_case "doc-unterminated" `Quick test_doc_unterminated;
          Alcotest.test_case "plain comments exempt" `Quick test_doc_plain_comments_exempt;
          Alcotest.test_case "rules catalogue" `Quick test_doc_rules_catalogue;
        ] );
    ]
