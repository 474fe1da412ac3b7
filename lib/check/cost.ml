(* Loop-cost and allocation analysis. Intraprocedural loop structure is
   recovered token-by-token (for/while blocks, higher-order iteration
   argument spans, recursive bodies); the allocation facts are Kleene
   fixpoints on the boolean lattice, solved by Callgraph.fixpoint like
   every other pass. See cost.mli and DESIGN.md §12 for the accepted
   blind spots. *)

module S = Srclint

(* ------------------------------------------------------------------ *)
(* Primitive tables (Hashtbl membership: these are consulted once per
   token, inside the scanning loops this very pass audits)             *)
(* ------------------------------------------------------------------ *)

let quad_prims =
  S.table
    [ "List.append"; "@"; "List.mem"; "List.memq"; "List.mem_assoc"; "List.assoc";
      "List.assoc_opt"; "List.nth"; "List.nth_opt" ]

let rebuild_names =
  [ "Hashtbl.create"; "Array.make"; "Array.create_float"; "Array.make_matrix"; "Buffer.create";
    "Bytes.create"; "Queue.create"; "Stack.create"; "Array.to_list"; "Array.of_list" ]

let rebuild_prims = S.table rebuild_names

(* Everything above plus cheap-once constructors: allocating once is
   fine anywhere, so these only matter through the per-iteration bit. *)
let alloc_prims =
  S.table
    (List.append rebuild_names
       [ "Array.append"; "Array.copy"; "Array.sub"; "Array.concat"; "Array.init"; "List.init";
         "String.concat"; "String.sub" ])

(* ------------------------------------------------------------------ *)
(* Higher-order iteration call recognition                            *)
(* ------------------------------------------------------------------ *)

let hof_prefixes =
  [ "iter"; "map"; "fold"; "filter"; "for_all"; "exists"; "partition"; "concat"; "sort" ]

(* Modules whose map/fold run the callback at most once. *)
let scalar_modules =
  S.table
    [ "Option"; "Result"; "Either"; "Fun"; "Lazy"; "Atomic"; "Float"; "Int"; "Int32"; "Int64";
      "Nativeint"; "Bool"; "Char"; "Unit" ]

let first_dot_component t =
  match String.index_opt t '.' with Some i -> String.sub t 0 i | None -> t

(* [comp] names an iteration combinator when it extends a known prefix
   with nothing, an underscore suffix (fold_left, iter_flows, sort_uniq),
   an [i] (iteri, mapi, filteri) or an arity digit (map2, for_all2). *)
let matches_prefix comp p =
  let lp = String.length p and lc = String.length comp in
  lc >= lp
  && String.sub comp 0 lp = p
  && (lc = lp || match comp.[lp] with '_' | 'i' | '0' .. '9' -> true | _ -> false)

let is_loop_hof t =
  String.contains t '.'
  && (not (Hashtbl.mem scalar_modules (first_dot_component t)))
  &&
  let comp = S.last_component t in
  comp <> ""
  && comp.[0] >= 'a'
  && comp.[0] <= 'z'
  && List.exists (matches_prefix comp) hof_prefixes

(* ------------------------------------------------------------------ *)
(* Per-token lexical loop depth                                       *)
(* ------------------------------------------------------------------ *)

let depths (body : S.tok array) =
  let n = Array.length body in
  let d = Array.make n 0 in
  let bracket = ref 0 in
  (* Open for/while blocks, closed by [done]. *)
  let dones = ref 0 in
  (* Bracket levels of open iteration-call argument spans, innermost
     first: [List.iter (fun ...) xs] keeps its span open until a stop
     token or a closing bracket at or below the recorded level. *)
  let pendings = ref [] in
  (* Open [let] bindings, innermost first, flagged [rec]: tokens inside a
     [let rec ... in] definition may re-run on every recursive call, so
     each open rec binding adds one level. A toplevel [let rec f] never
     meets its [in], covering the whole body — exactly right for a
     recursive toplevel definition. *)
  let lets = ref [] in
  let rec_depth () = List.length (List.filter (fun r -> r) !lets) in
  for i = 0 to n - 1 do
    let t = body.(i).S.t in
    (match t with
    | ")" | "]" | "}" ->
        bracket := max 0 (!bracket - 1);
        pendings := List.filter (fun l -> l <= !bracket) !pendings
    | _ -> ());
    (* A span stop ([in] after [let xs = List.map f ys]) closes the
       pending application spans at its bracket level. *)
    if Callgraph.span_stop t then begin
      pendings := List.filter (fun l -> l < !bracket) !pendings;
      if t = "done" then dones := max 0 (!dones - 1)
    end;
    if t = "in" then lets := (match !lets with _ :: tl -> tl | [] -> []);
    d.(i) <- !dones + List.length !pendings + rec_depth ();
    match t with
    | "(" | "[" | "{" -> incr bracket
    | "for" | "while" -> incr dones
    | "let" -> lets := (i + 1 < n && body.(i + 1).S.t = "rec") :: !lets
    | _ -> if is_loop_hof t then pendings := !bracket :: !pendings
  done;
  d

(* [and]-chained definitions carry no [let rec] of their own: a self-call
   of the bound name marks the body recursive. Plain [let] bodies cannot
   self-call, so name shadowing ([let loads ... = let loads, _ = ...])
   stays quiet. *)
let def_depths (d : Callgraph.def) =
  let body = d.Callgraph.d_body in
  let dep = depths body in
  let n = Array.length body in
  if n > 0 && body.(0).S.t = "and" && d.Callgraph.d_name <> "_" && d.Callgraph.d_name <> "()"
  then begin
    let uses = ref 0 in
    Array.iter (fun { S.t; _ } -> if t = d.Callgraph.d_name then incr uses) body;
    if !uses >= 2 then
      for j = 0 to n - 1 do
        dep.(j) <- dep.(j) + 1
      done
  end;
  dep

(* ------------------------------------------------------------------ *)
(* Per-definition base facts                                          *)
(* ------------------------------------------------------------------ *)

type facts = {
  f_dep : int array;  (** lexical loop depth per body token *)
  f_quad : (int * string) list;  (** (token index, prim) at depth >= 1 *)
  f_rebuild : (int * string) list;
  f_alloc_any : bool;
  f_alloc_iter : bool;  (** a local allocation site at depth >= 1 *)
}

let facts_of_def (d : Callgraph.def) =
  let body = d.Callgraph.d_body in
  let dep = def_depths d in
  let quad = ref [] and rebuild = ref [] in
  let alloc_any = ref false and alloc_iter = ref false in
  (* A bare [@] token that is part of a parenthesized operator name — the
     [*@] of [U.( *@ )], or a section like [( @ )] — is not list append;
     the tokenizer splits unknown two-char operators apart. *)
  let operator_position i =
    body.(i).S.t = "@"
    && ((i > 0 && (body.(i - 1).S.t = "*" || body.(i - 1).S.t = "("))
       || (i + 1 < Array.length body && body.(i + 1).S.t = ")"))
  in
  Array.iteri
    (fun i { S.t; _ } ->
      if Hashtbl.mem alloc_prims t then begin
        alloc_any := true;
        if dep.(i) >= 1 then alloc_iter := true
      end;
      if dep.(i) >= 1 then begin
        if Hashtbl.mem quad_prims t && not (operator_position i) then quad := (i, t) :: !quad;
        if Hashtbl.mem rebuild_prims t then rebuild := (i, t) :: !rebuild
      end)
    body;
  {
    f_dep = dep;
    f_quad = List.rev !quad;
    f_rebuild = List.rev !rebuild;
    f_alloc_any = !alloc_any;
    f_alloc_iter = !alloc_iter;
  }

(* ------------------------------------------------------------------ *)
(* Interprocedural fixpoints                                          *)
(* ------------------------------------------------------------------ *)

type analysis = {
  a_facts : facts array;
  a_alloc : bool array;
  a_per_iter : bool array;
}

let site_depth facts i tok = if tok < Array.length facts.(i).f_dep then facts.(i).f_dep.(tok) else 0

let compute (g : Callgraph.t) =
  let defs = g.Callgraph.defs in
  let n = Array.length defs in
  let facts = Array.init n (fun i -> facts_of_def defs.(i)) in
  (* May-allocate, then may-allocate-per-iteration (needs the former:
     calling an allocator from inside a loop allocates every pass). *)
  let alloc =
    Callgraph.propagate g ~init:(fun i -> facts.(i).f_alloc_any) ~join:( || ) ~equal:Bool.equal
  in
  let per_iter =
    Callgraph.fixpoint ~n ~equal:Bool.equal
      ~init:(fun i -> facts.(i).f_alloc_iter)
      ~step:(fun per_iter i ->
        per_iter.(i)
        || List.exists
             (fun (tok, j) -> per_iter.(j) || (site_depth facts i tok >= 1 && alloc.(j)))
             g.Callgraph.sites.(i))
  in
  { a_facts = facts; a_alloc = alloc; a_per_iter = per_iter }

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let quadratic_list_op =
  Finding.rule ~section:"cost" "quadratic-list-op"
    "O(n) list primitive (List.append/@/mem/assoc/nth) inside a loop"

let rebuild_in_loop =
  Finding.rule ~section:"cost" "rebuild-in-loop"
    "container (Hashtbl/Array/Buffer/...) rebuilt on every loop iteration"

let alloc_in_hot_loop =
  Finding.rule ~level:Warn ~section:"budget" "alloc-in-hot-loop"
    "declared hot entrypoint transitively allocates on every iteration (warn)"

let memo_unsafe =
  Finding.rule ~section:"cost" "memo-unsafe"
    "declared memoized function shows nondet/IO/partial effects or raises directly"

let cost_manifest =
  Finding.rule ~section:"cost" "cost-manifest"
    "a cost-section entry of check/analyze.json does not resolve, or the section has an unknown \
     key"

let rules = [ quadratic_list_op; rebuild_in_loop; alloc_in_hot_loop; memo_unsafe; cost_manifest ]

let analyze ?(where = Manifest.path) ?(manifest = []) (g : Callgraph.t) =
  let defs = g.Callgraph.defs in
  let n = Array.length defs in
  let a = compute g in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* Intra-procedural site rules over library definitions only: entry
     points (tests, benches, executables) are reachability context. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      if not d.Callgraph.d_entry then begin
        let i = d.Callgraph.d_id in
        List.iter
          (fun (tok, prim) ->
            add
              (Finding.emit quadratic_list_op ~where:(Callgraph.where_at d tok)
                 (Printf.sprintf "%s at loop depth %d in %s: O(n) per iteration" prim
                    a.a_facts.(i).f_dep.(tok) (Callgraph.qualified d))))
          a.a_facts.(i).f_quad;
        List.iter
          (fun (tok, prim) ->
            add
              (Finding.emit rebuild_in_loop ~where:(Callgraph.where_at d tok)
                 (Printf.sprintf "%s at loop depth %d in %s rebuilds a container every iteration"
                    prim
                    a.a_facts.(i).f_dep.(tok) (Callgraph.qualified d))))
          a.a_facts.(i).f_rebuild
      end)
    defs;
  (* Manifest-driven rules. *)
  List.iter
    (fun (key, _) ->
      match key with
      | "hot" | "memo" -> ()
      | _ ->
          add
            (Finding.emit cost_manifest ~where
               (Printf.sprintf "unknown manifest key %S (expected \"hot\" or \"memo\")" key)))
    manifest;
  let resolve_all key =
    Option.value (List.assoc_opt key manifest) ~default:[]
    |> Callgraph.resolve_entries g ~add ~rule:cost_manifest ~where
         ~unresolved:(Printf.sprintf "%s entrypoint %s does not resolve to any definition" key)
  in
  let hot = resolve_all "hot" in
  let memo = resolve_all "memo" in
  (* alloc-in-hot-loop: one warning per hot entrypoint that transitively
     allocates per iteration, with the chain to the allocating site. *)
  let local_iter_evidence j =
    a.a_facts.(j).f_alloc_iter
    || List.exists
         (fun (tok, k) -> site_depth a.a_facts j tok >= 1 && a.a_alloc.(k))
         g.Callgraph.sites.(j)
  in
  List.iter
    (fun (d : Callgraph.def) ->
      let i = d.Callgraph.d_id in
      if a.a_per_iter.(i) then
        add
          (Finding.emit alloc_in_hot_loop ~where:(Callgraph.where_of d)
             (Printf.sprintf "hot entrypoint %s allocates per iteration (via %s)"
                (Callgraph.qualified d)
                (Callgraph.via g ~from:i ~target:local_iter_evidence))))
    hot;
  (* memo-unsafe: Effect facts with the obs library treated as
     value-transparent (spans read clocks but do not change the wrapped
     result; Eutil.Memo never caches an exceptional outcome). A raise in
     the memoized body itself still disqualifies it. *)
  if memo <> [] then begin
    let base =
      Array.init n (fun i ->
          if defs.(i).Callgraph.d_library = "obs" then Effect.empty
          else Effect.base_of_body defs.(i).Callgraph.d_body)
    in
    let eff = Effect.propagate g base in
    List.iter
      (fun (d : Callgraph.def) ->
        let i = d.Callgraph.d_id in
        let where = Callgraph.where_of d in
        let unsafe sel what =
          Effect.witnessed g ~base eff sel i
          |> Option.iter (fun (prim, via) ->
                 add
                   (Finding.emit memo_unsafe ~where
                      (Printf.sprintf "memoized %s %s %s (via %s)" (Callgraph.qualified d) what
                         prim via)))
        in
        unsafe (fun e -> e.Effect.nondet) "is nondeterministic:";
        unsafe (fun e -> e.Effect.partial) "can hit partial";
        if (eff.(i)).Effect.io then
          add
            (Finding.emit memo_unsafe ~where
               (Printf.sprintf "memoized %s performs IO" (Callgraph.qualified d)));
        if (Effect.base_of_body d.Callgraph.d_body).Effect.raises then
          add
            (Finding.emit memo_unsafe ~where
               (Printf.sprintf "memoized %s raises directly in its own body"
                  (Callgraph.qualified d))))
      memo
  end;
  List.rev !findings
