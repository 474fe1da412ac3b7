(* Domain-safety analysis: which definitions can touch shared mutable
   state, and may a declared parallel entrypoint reach a write of it?

   Like Effect, this is a heuristic token-level analysis over the
   Callgraph: no typing, no aliasing — a "root" is a toplevel value
   binding whose transitive may-allocate set is nonempty (it owns a ref /
   array / hashtable / PRNG / lazy cell that survives module init), and
   reads/writes of roots are propagated through the call graph to a Kleene
   fixpoint. See share.mli and DESIGN.md §11 for the accepted blind
   spots. *)

module S = Srclint
module Ints = Callgraph.Ints

type root_kind = Mutable | Prng | Lazy_val

type root = {
  r_id : int;
  r_def : int;  (* def id of the binding; -1 for the ambient Stdlib.Random *)
  r_name : string;  (* qualified, e.g. "Registry.default" *)
  r_kind : root_kind;
  r_guarded : bool;
  r_file : string;
  r_line : int;
}

type audit = {
  a_roots : root array;
  a_base_reads : Ints.t array;  (* per def: roots read directly *)
  a_base_writes : Ints.t array;  (* per def: roots written directly *)
  a_reads : Ints.t array;  (* transitive closure over callees *)
  a_writes : Ints.t array;
}

let kind_to_string = function
  | Mutable -> "mutable state"
  | Prng -> "PRNG stream"
  | Lazy_val -> "lazy cell"

(* ------------------------------------------------------------------ *)
(* Token vocabularies                                                 *)
(* ------------------------------------------------------------------ *)

(* Allocators of mutable storage. [Atomic.make] and [Mutex.create] are
   deliberately absent: state reachable only through them is its own
   discipline. *)
let alloc_prims =
  S.table
    [ "Hashtbl.create"; "Hashtbl.copy"; "Array.make"; "Array.create_float"; "Array.init";
      "Array.copy"; "Array.make_matrix"; "Bytes.create"; "Bytes.make"; "Bytes.of_string";
      "Buffer.create"; "Queue.create"; "Stack.create" ]

let prng_prims = S.table [ "Eutil.Prng.create"; "Eutil.Prng.split"; "Prng.create"; "Prng.split" ]

(* Mutating primitives whose next token is the mutated value. *)
let mutator_prims =
  S.table
    [ "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear";
      "Hashtbl.filter_map_inplace"; "Array.set"; "Array.fill"; "Array.blit"; "Array.sort";
      "Array.fast_sort"; "Array.unsafe_set"; "Bytes.set"; "Bytes.fill"; "Bytes.blit";
      "Bytes.unsafe_set"; "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
      "Buffer.add_buffer"; "Buffer.add_substitute"; "Buffer.clear"; "Buffer.reset";
      "Buffer.truncate"; "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear";
      "Queue.transfer"; "Stack.push"; "Stack.pop"; "Stack.clear"; "Lazy.force";
      (* Obs instruments, under every qualification the repo uses. *)
      "Obs.Metric.Counter.incr"; "Obs.Metric.Counter.add"; "Obs.Metric.Counter.add_int";
      "Metric.Counter.incr"; "Metric.Counter.add"; "Metric.Counter.add_int"; "Counter.incr";
      "Counter.add"; "Counter.add_int"; "Obs.Metric.Gauge.set"; "Obs.Metric.Gauge.set_int";
      "Obs.Metric.Gauge.add"; "Metric.Gauge.set"; "Metric.Gauge.set_int"; "Metric.Gauge.add";
      "Gauge.set"; "Gauge.set_int"; "Gauge.add"; "Obs.Metric.Histogram.observe";
      "Obs.Metric.Histogram.time"; "Metric.Histogram.observe"; "Metric.Histogram.time";
      "Histogram.observe"; "Histogram.time"; "Obs.Registry.reset"; "Registry.reset";
      "Obs.Registry.register"; "Registry.register" ]

(* A file whose tokens use any of these has an owning-module concurrency
   discipline; mutable state it allocates is considered guarded. *)
let discipline_prefixes = [ "Mutex."; "Atomic."; "Domain.DLS" ]

(* ------------------------------------------------------------------ *)
(* File-scope context: discipline and mutable record fields           *)
(* ------------------------------------------------------------------ *)

let file_discipline (files : Callgraph.file list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Callgraph.file) ->
      let disciplined =
        Array.exists
          (fun { S.t; _ } ->
            List.exists (fun p -> String.starts_with ~prefix:p t) discipline_prefixes)
          f.Callgraph.f_lex.S.toks
      in
      Hashtbl.replace tbl f.Callgraph.f_path disciplined)
    files;
  tbl

(* (library, field_name) for every [mutable foo : ...] declaration: a
   record literal mentioning such a field allocates mutable state. *)
let mutable_fields (files : Callgraph.file list) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (f : Callgraph.file) ->
      let toks = f.Callgraph.f_lex.S.toks in
      Array.iteri
        (fun i { S.t; _ } ->
          if t = "mutable" && i + 1 < Array.length toks then begin
            let next = toks.(i + 1).S.t in
            if S.is_lower next && not (String.contains next '.') then
              Hashtbl.replace tbl (f.Callgraph.f_library, next) ()
          end)
        toks)
    files;
  tbl

(* ------------------------------------------------------------------ *)
(* May-allocate fixpoint and root harvesting                          *)
(* ------------------------------------------------------------------ *)

type alloc = { au : bool; ag : bool; ap : bool; al : bool }
(* unguarded mutable / guarded mutable / prng / lazy *)

let alloc_none = { au = false; ag = false; ap = false; al = false }

let alloc_union a b =
  { au = a.au || b.au; ag = a.ag || b.ag; ap = a.ap || b.ap; al = a.al || b.al }

let alloc_any a = a.au || a.ag || a.ap || a.al

(* [ref] is an allocator only when applied; after an identifier or inside
   a type expression ([int ref], [: bool ref =]) it is a type constructor. *)
let ref_applied (body : S.tok array) i =
  let n = Array.length body in
  (i = 0 || not (S.is_lower body.(i - 1).S.t || S.is_upper body.(i - 1).S.t))
  && i + 1 < n
  &&
  let next = body.(i + 1).S.t in
  not (List.mem next [ "="; ")"; "]"; "}"; ";"; ","; "->"; "|"; ":"; "*" ])

let base_alloc ~disciplined ~mut_fields (d : Callgraph.def) =
  let body = d.Callgraph.d_body in
  let guarded = disciplined d.Callgraph.d_file in
  let a = ref alloc_none in
  Array.iteri
    (fun i { S.t; _ } ->
      if Hashtbl.mem alloc_prims t || (t = "ref" && ref_applied body i) then
        a := alloc_union !a (if guarded then { alloc_none with ag = true } else { alloc_none with au = true })
      else if Hashtbl.mem prng_prims t then a := alloc_union !a { alloc_none with ap = true }
      else if t = "lazy" then a := alloc_union !a { alloc_none with al = true }
      else if
        S.is_lower t
        && (not (String.contains t '.'))
        && Hashtbl.mem mut_fields (d.Callgraph.d_library, t)
        && i + 1 < Array.length body
        && body.(i + 1).S.t = "="
        && (i = 0
           || not (match body.(i - 1).S.t with "let" | "and" | "rec" -> true | _ -> false))
      then
        (* Record literal initialising a mutable field. *)
        a := alloc_union !a (if guarded then { alloc_none with ag = true } else { alloc_none with au = true }))
    body;
  !a

(* Is this def a plain value binding ([let name = ...] / [let name : t = ...]),
   as opposed to a function or destructuring pattern? Only value bindings
   hold state that outlives module initialisation. *)
let binding_is_value (body : S.tok array) =
  let j = Callgraph.name_index body 0 in
  j + 1 < Array.length body
  && S.is_lower body.(j).S.t
  && (not (String.contains body.(j).S.t '.'))
  && (body.(j + 1).S.t = "=" || body.(j + 1).S.t = ":")

(* ------------------------------------------------------------------ *)
(* Audit                                                              *)
(* ------------------------------------------------------------------ *)

let audit (g : Callgraph.t) =
  let defs = g.Callgraph.defs in
  let discipline = file_discipline g.Callgraph.files in
  let disciplined file = Option.value (Hashtbl.find_opt discipline file) ~default:false in
  let mut_fields = mutable_fields g.Callgraph.files in
  (* 1. May-allocate fixpoint: does evaluating this def (transitively)
     allocate mutable storage? *)
  let alloc =
    Callgraph.propagate g
      ~init:(fun i -> base_alloc ~disciplined ~mut_fields defs.(i))
      ~join:alloc_union ~equal:( = )
  in
  (* 2. Roots: non-entry toplevel value bindings whose evaluation allocates
     mutable storage, plus the ambient Stdlib.Random state. *)
  let roots = ref [] in
  let next_id = ref 0 in
  Array.iter
    (fun (d : Callgraph.def) ->
      let a = alloc.(d.Callgraph.d_id) in
      if
        (not d.Callgraph.d_entry)
        && binding_is_value d.Callgraph.d_body
        && alloc_any a
      then begin
        let kind = if a.ap then Prng else if a.al && not a.au && not a.ag then Lazy_val else Mutable in
        let guarded = disciplined d.Callgraph.d_file || (a.ag && not a.au) in
        roots :=
          {
            r_id = !next_id;
            r_def = d.Callgraph.d_id;
            r_name = Callgraph.modkey d ^ "." ^ d.Callgraph.d_name;
            r_kind = kind;
            r_guarded = guarded;
            r_file = d.Callgraph.d_file;
            r_line = d.Callgraph.d_line;
          }
          :: !roots;
        incr next_id
      end)
    defs;
  let random_id = !next_id in
  let random_root =
    {
      r_id = random_id;
      r_def = -1;
      r_name = "Stdlib.Random";
      r_kind = Prng;
      r_guarded = false;
      r_file = "<stdlib>";
      r_line = 0;
    }
  in
  let roots = Array.of_list (List.rev (random_root :: !roots)) in
  (* 3. Resolution indices: root references by (file, name) for undotted /
     lowercase-dotted uses and by (modkey, name) for qualified uses. *)
  let by_file = Hashtbl.create 64 in
  let by_modkey = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      if r.r_def >= 0 then begin
        let d = defs.(r.r_def) in
        S.multi_add by_file (d.Callgraph.d_file, d.Callgraph.d_name) r.r_id;
        S.multi_add by_modkey (Callgraph.modkey d, d.Callgraph.d_name) r.r_id
      end)
    roots;
  let resolve (d : Callgraph.def) t =
    if String.starts_with ~prefix:"Random." t then [ random_id ]
    else if String.contains t '.' then begin
      let comps = String.split_on_char '.' t in
      match comps with
      | first :: _ when S.is_lower first ->
          (* Field or method access on a local/file-scope name: resolve the
             base against this file's roots. *)
          Option.value (Hashtbl.find_opt by_file (d.Callgraph.d_file, first)) ~default:[]
      | _ ->
          (* Qualified: find the last Module component followed by a value
             name, with the component before it as a library hint. *)
          let arr = Array.of_list comps in
          let m = Array.length arr in
          let idx = ref (-1) in
          for k = 0 to m - 2 do
            if S.is_upper arr.(k) && S.is_lower arr.(k + 1) then idx := k
          done;
          if !idx < 0 then []
          else begin
            let mk = arr.(!idx) and name = arr.(!idx + 1) in
            let hint = if !idx > 0 then arr.(!idx - 1) else "" in
            Callgraph.narrow ~library:d.Callgraph.d_library ~hint
              (fun r -> defs.(roots.(r).r_def))
              (Option.value (Hashtbl.find_opt by_modkey (mk, name)) ~default:[])
          end
    end
    else if S.is_lower t then
      Option.value (Hashtbl.find_opt by_file (d.Callgraph.d_file, t)) ~default:[]
    else []
  in
  (* 4. Base read/write sets from each body's root references in context. *)
  let scan (d : Callgraph.def) =
    let body = d.Callgraph.d_body in
    let nb = Array.length body in
    let tok j = if j >= 0 && j < nb then body.(j).S.t else "" in
    let reads = ref Ints.empty and writes = ref Ints.empty in
    (* [a.(i) <- v]: the root token is followed by ".", "(", a balanced
       group, then "<-". *)
    let index_assign i =
      tok (i + 1) = "."
      && tok (i + 2) = "("
      && tok (Callgraph.matching_close body (i + 2) + 1) = "<-"
    in
    Array.iteri
      (fun i { S.t; _ } ->
        match resolve d t with
        | [] -> ()
        | rs ->
            let prev = tok (i - 1) and next = tok (i + 1) in
            let write_ctx =
              next = ":=" || next = "<-"
              || prev = "incr" || prev = "decr" || prev = "Stdlib.incr" || prev = "Stdlib.decr"
              || Hashtbl.mem mutator_prims prev
              || List.exists (fun p -> String.starts_with ~prefix:p prev) [ "Eutil.Prng."; "Prng." ]
              || index_assign i
            in
            List.iter
              (fun r ->
                if roots.(r).r_def = d.Callgraph.d_id then ()
                  (* a binding's own initialiser neither reads nor writes *)
                else if write_ctx || roots.(r).r_kind <> Mutable then
                  (* any use of a PRNG stream advances it; any use of a
                     lazy cell may force it *)
                  writes := Ints.add r !writes
                else reads := Ints.add r !reads)
              rs)
      body;
    (!reads, !writes)
  in
  let base = Array.map scan defs in
  let base_reads = Array.map fst base in
  let base_writes = Array.map snd base in
  let sets base =
    Callgraph.propagate g ~init:(fun i -> base.(i)) ~join:Ints.union ~equal:Ints.equal
  in
  let reads = sets base_reads in
  let writes = sets base_writes in
  {
    a_roots = roots;
    a_base_reads = base_reads;
    a_base_writes = base_writes;
    a_reads = reads;
    a_writes = writes;
  }

let roots a = a.a_roots

let reads a i = Ints.elements a.a_reads.(i)
let writes a i = Ints.elements a.a_writes.(i)

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let shared_write_reachable =
  Finding.rule ~section:"parallel" "shared-write-reachable"
    "a declared parallel entrypoint transitively writes an unguarded shared mutable root"

let unguarded_global =
  Finding.rule ~level:Warn ~section:"budget" "unguarded-global"
    "toplevel mutable root without owning-module Mutex/Atomic/Domain.DLS discipline (warn)"

let prng_shared =
  Finding.rule ~section:"parallel" "prng-shared"
    "one PRNG stream is reachable from two or more parallel entrypoints"

let parallel_manifest =
  Finding.rule ~section:"parallel" "parallel-manifest"
    "an entrypoint named in the parallel section of check/analyze.json does not resolve"

let rules = [ shared_write_reachable; unguarded_global; prng_shared; parallel_manifest ]

let analyze ?(where = Manifest.path) ?(manifest = []) (g : Callgraph.t) =
  let a = audit g in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* unguarded-global: roots with no discipline that something actually
     writes (an allocated-but-never-mutated table is shared read-only
     data, not a hazard). PRNG and lazy roots count as written by use. *)
  let written r =
    Array.exists (fun ws -> Ints.mem r ws) a.a_base_writes
  in
  Array.iter
    (fun r ->
      if r.r_def >= 0 && (not r.r_guarded) && written r.r_id then
        add
          (Finding.emit unguarded_global
             ~where:(Printf.sprintf "%s:%d" r.r_file r.r_line)
             (Printf.sprintf "toplevel %s %s has no Mutex/Atomic/Domain.DLS discipline"
                (kind_to_string r.r_kind) r.r_name)))
    a.a_roots;
  (* Per-region entrypoints. *)
  let entries =
    List.concat_map
      (fun (region, names) ->
        Callgraph.resolve_entries g ~add ~rule:parallel_manifest ~where names
          ~unresolved:(fun name ->
            Printf.sprintf "parallel entrypoint %s (region %s) does not resolve" name region)
        |> List.map (fun d -> (region, d)))
      manifest
  in
  (* shared-write-reachable: an entrypoint whose transitive write set
     contains an unguarded root, with the shortest call chain to the
     writing definition as witness. *)
  List.iter
    (fun (region, (d : Callgraph.def)) ->
      let i = d.Callgraph.d_id in
      Ints.iter
        (fun r ->
          let root = a.a_roots.(r) in
          if not root.r_guarded then begin
            let via = Callgraph.via g ~from:i ~target:(fun j -> Ints.mem r a.a_base_writes.(j)) in
            add
              (Finding.emit shared_write_reachable ~where:(Callgraph.where_of d)
                 (Printf.sprintf "parallel entrypoint %s (region %s) reaches a write of %s %s via %s"
                    (Callgraph.qualified d) region (kind_to_string root.r_kind) root.r_name via))
          end)
        a.a_writes.(i))
    entries;
  (* prng-shared: one PRNG stream (guarded or not — a mutex does not make
     a stream's draw order deterministic) reachable from two or more
     distinct entrypoints. *)
  Array.iter
    (fun root ->
      if root.r_kind = Prng then begin
        let users =
          List.filter
            (fun (_, (d : Callgraph.def)) ->
              let i = d.Callgraph.d_id in
              Ints.mem root.r_id a.a_reads.(i) || Ints.mem root.r_id a.a_writes.(i))
            entries
        in
        let distinct =
          List.sort_uniq Int.compare
            (List.map (fun (_, (d : Callgraph.def)) -> d.Callgraph.d_id) users)
        in
        if List.length distinct >= 2 then
          add
            (Finding.emit prng_shared
               ~where:(Printf.sprintf "%s:%d" root.r_file root.r_line)
               (Printf.sprintf "PRNG stream %s is reachable from %d parallel entrypoints: %s"
                  root.r_name (List.length distinct)
                  (String.concat ", "
                     (List.map (fun i -> Callgraph.qualified g.Callgraph.defs.(i)) distinct))))
      end)
    a.a_roots;
  List.rev !findings
