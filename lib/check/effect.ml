(* Interprocedural effect inference on the Callgraph. Base effects come
   from a single pass over each definition's body tokens; propagation is a
   Kleene iteration of a union transfer function, so the fixpoint exists
   and is monotone in the edge set. See effect.mli and DESIGN.md §10. *)

module S = Srclint
module Strings = Set.Make (String)

type effects = { raises : bool; partial : Strings.t; nondet : Strings.t; io : bool }

let empty = { raises = false; partial = Strings.empty; nondet = Strings.empty; io = false }

let union a b =
  {
    raises = a.raises || b.raises;
    partial = Strings.union a.partial b.partial;
    nondet = Strings.union a.nondet b.nondet;
    io = a.io || b.io;
  }

let leq a b =
  (not a.raises || b.raises)
  && Strings.subset a.partial b.partial
  && Strings.subset a.nondet b.nondet
  && ((not a.io) || b.io)

let equal_effects a b = leq a b && leq b a

(* ------------------------------------------------------------------ *)
(* Base effects of one body                                           *)
(* ------------------------------------------------------------------ *)

(* Primitive classification tables: [base_of_body] consults them once per
   token, so membership must be constant-time, not a list walk. *)
let raise_prims = S.table [ "failwith"; "invalid_arg"; "Stdlib.failwith"; "Stdlib.invalid_arg" ]
let partial_prims = S.table [ "List.hd"; "Option.get"; "Hashtbl.find" ]
let clock_prims = S.table [ "Random.self_init"; "Unix.gettimeofday"; "Sys.time" ]
let hashtbl_orders = S.table [ "Hashtbl.iter"; "Hashtbl.fold" ]
let sorters = S.table [ "List.sort"; "List.sort_uniq"; "List.stable_sort"; "Array.sort" ]

let io_prims =
  S.table
    [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
      "prerr_string"; "prerr_endline"; "prerr_newline"; "Printf.printf"; "Printf.eprintf";
      "Format.printf"; "Format.eprintf"; "Fmt.pr"; "Fmt.epr"; "open_in"; "open_out"; "open_in_bin";
      "open_out_bin"; "input_line"; "output_string"; "output_char"; "read_line"; "Sys.readdir";
      "Sys.command"; "Sys.remove"; "Sys.rename" ]

let is_io_prim t = Hashtbl.mem io_prims t

let undotted s = not (String.contains s '.')

let base_of_body (body : S.tok array) =
  let n = Array.length body in
  let tok_at j = if j < n then body.(j).S.t else "" in
  (* Constructors this body matches on: [with C], [| C], [exception C].
     A [raise C] of such a constructor is locally handled. *)
  let handled = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    match body.(i).S.t with
    | "with" | "|" | "exception" ->
        let next = tok_at (i + 1) in
        if S.is_upper next && undotted next then Hashtbl.replace handled next ()
    | _ -> ()
  done;
  let last_sorter = ref (-1) in
  for i = n - 1 downto 0 do
    if !last_sorter < 0 && Hashtbl.mem sorters body.(i).S.t then last_sorter := i
  done;
  let e = ref empty in
  for i = 0 to n - 1 do
    let t = body.(i).S.t in
    if Hashtbl.mem raise_prims t then e := { !e with raises = true }
    else if t = "raise" || t = "Stdlib.raise" then begin
      (* Skip the wrapping paren / application operator to see the
         exception constructor: [raise (Bad x)], [raise @@ Bad x]. *)
      let j = ref (i + 1) in
      while tok_at !j = "(" || tok_at !j = "@@" do
        incr j
      done;
      let exn = tok_at !j in
      let local_exit = exn = "Exit" || exn = "Stdlib.Exit" in
      let local_handled = S.is_upper exn && undotted exn && Hashtbl.mem handled exn in
      if not (local_exit || local_handled) then e := { !e with raises = true }
    end
    else if Hashtbl.mem partial_prims t then e := { !e with partial = Strings.add t !e.partial }
    else if t = "Array.get" then begin
      (* [Array.get a 0] is fine; a computed index is partial. *)
      let idx = tok_at (i + 2) in
      if not (S.is_number idx) then e := { !e with partial = Strings.add t !e.partial }
    end
    else if Hashtbl.mem clock_prims t then e := { !e with nondet = Strings.add t !e.nondet }
    else if Hashtbl.mem hashtbl_orders t then begin
      (* The fold-then-sort idiom is deterministic: a sorter later in the
         same body cancels the iteration-order effect. *)
      if !last_sorter < i then e := { !e with nondet = Strings.add t !e.nondet }
    end
    else if Hashtbl.mem io_prims t then e := { !e with io = true }
  done;
  !e

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let propagate g base =
  Callgraph.propagate g ~init:(fun i -> base.(i)) ~join:union ~equal:equal_effects

let witnessed g ~base eff sel i =
  Strings.min_elt_opt (sel eff.(i))
  |> Option.map (fun prim ->
         (prim, Callgraph.via g ~from:i ~target:(fun j -> not (Strings.is_empty (sel base.(j))))))

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let partial_reachable =
  Finding.rule "partial-reachable"
    "public library value can reach a partial primitive (List.hd, Option.get, Hashtbl.find, \
     computed Array.get)"

let nondet_export =
  Finding.rule "nondet-export" "iteration-order or clock nondeterminism reaches an export surface"

let undocumented_raise =
  Finding.rule ~level:Warn ~section:"budget" "undocumented-raise"
    "public .mli value raises directly but its doc lacks @raise (warn)"

let dead_function =
  Finding.rule ~level:Warn ~section:"budget" "dead-function"
    "toplevel definition unreachable from every entry point (warn)"

let rules =
  [ partial_reachable; nondet_export; undocumented_raise; dead_function; Manifest.budget_exceeded ]

let export_names = [ "to_json"; "to_csv"; "to_dot"; "to_text"; "to_prometheus"; "to_prom" ]
let export_modules = [ "Export"; "Harness" ]

let analyze (g : Callgraph.t) =
  let defs = g.Callgraph.defs in
  let base = Array.map (fun (d : Callgraph.def) -> base_of_body d.Callgraph.d_body) defs in
  let witnessed = witnessed g ~base (propagate g base) in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* partial-reachable: a public value whose transitive effects include a
     partial primitive. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      if d.Callgraph.d_public then
        witnessed (fun e -> e.partial) d.Callgraph.d_id
        |> Option.iter (fun (prim, via) ->
               add
                 (Finding.emit partial_reachable ~where:(Callgraph.where_of d)
                    (Printf.sprintf "public %s can hit partial %s (via %s)"
                       (Callgraph.qualified d) prim via))))
    defs;
  (* nondet-export: nondeterminism reaching an export surface. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      if
        (not d.Callgraph.d_entry)
        && (List.exists (String.equal d.Callgraph.d_name) export_names
           || List.exists (String.equal (Callgraph.modkey d)) export_modules)
      then
        witnessed (fun e -> e.nondet) d.Callgraph.d_id
        |> Option.iter (fun (prim, via) ->
               add
                 (Finding.emit nondet_export ~where:(Callgraph.where_of d)
                    (Printf.sprintf "export %s depends on %s (via %s)" (Callgraph.qualified d)
                       prim via))))
    defs;
  (* undocumented-raise: direct raises behind an undocumented .mli val. *)
  List.iter
    (fun (v : Callgraph.vdecl) ->
      if not v.Callgraph.v_raise_doc then begin
        let matches (d : Callgraph.def) =
          d.Callgraph.d_library = v.Callgraph.v_library
          && d.Callgraph.d_module = v.Callgraph.v_module
          && d.Callgraph.d_name = v.Callgraph.v_name
        in
        Array.iter
          (fun (d : Callgraph.def) ->
            if matches d && base.(d.Callgraph.d_id).raises then
              add
                (Finding.emit undocumented_raise
                   ~where:(Printf.sprintf "%s:%d" v.Callgraph.v_file v.Callgraph.v_line)
                   (Printf.sprintf "val %s raises but its doc comment lacks @raise"
                      (Callgraph.qualified d))))
          defs
      end)
    g.Callgraph.vals;
  (* dead-function: unreachable from entry points and initializers. A
     test stanza roots nothing: code that only its tests call is dead. *)
  let roots = ref [] in
  Array.iter
    (fun (d : Callgraph.def) ->
      if
        (not d.Callgraph.d_test)
        && (d.Callgraph.d_entry || d.Callgraph.d_name = "()" || d.Callgraph.d_name = "_")
      then roots := d.Callgraph.d_id :: !roots)
    defs;
  let live = Callgraph.reachable g ~roots:!roots in
  Array.iter
    (fun (d : Callgraph.def) ->
      if (not d.Callgraph.d_entry) && not live.(d.Callgraph.d_id) then
        add
          (Finding.emit dead_function ~where:(Callgraph.where_of d)
             (Printf.sprintf "%s is unreachable from every entry point" (Callgraph.qualified d))))
    defs;
  List.rev !findings
