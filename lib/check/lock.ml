(* Lock-discipline analysis over the Callgraph token stream: lock-region
   recognition (Mutex.lock/unlock, Mutex.protect bodies, Fun.protect
   finalisers), per-definition held-lock summaries propagated by
   Callgraph.propagate, a global lock-acquisition order graph with cycle
   reporting, blocking-under-lock detection, and atomic read-modify-write
   discipline. Zero dependencies beyond the token stream, like Effect and
   Share; the heuristics and their blind spots are documented in
   DESIGN.md §15. *)

module S = Srclint
module Cg = Callgraph

module Ints = Cg.Ints

(* Blocking primitives beyond the Effect IO table: calls that can park
   the calling domain outright. *)
let blocking_prims =
  S.table
    [ "Unix.read"; "Unix.write"; "Unix.select"; "Unix.sleep"; "Unix.sleepf"; "Unix.fsync";
      "Unix.waitpid"; "Unix.accept"; "Unix.connect"; "Domain.join"; "Thread.join" ]

let is_blocking t = Hashtbl.mem blocking_prims t || Effect.is_io_prim t

(* ------------------------------------------------------------------ *)
(* Lock identities                                                    *)
(* ------------------------------------------------------------------ *)

type lock = {
  l_id : int;
  l_name : string;  (* "State.lock": enclosing module key + binding name *)
  l_library : string;
  l_file : string;
  l_line : int;
}

(* A lock is born at a [NAME = Mutex.create] binding — a toplevel [let],
   a [let] inside a function, or a record-field initialiser; in all three
   shapes the token before [=] is the lowercase name. The identity is the
   enclosing module key plus that name, which matches how the rest of the
   repo refers to it ([t.lock] in [State] is [State.lock]). *)
let harvest (g : Cg.t) =
  let tbl = Hashtbl.create 16 in
  let acc = ref [] in
  let count = ref 0 in
  Array.iter
    (fun (d : Cg.def) ->
      if not d.Cg.d_entry then
        let body = d.Cg.d_body in
        Array.iteri
          (fun i tk ->
            if
              tk.S.t = "Mutex.create" && i >= 2
              && body.(i - 1).S.t = "="
              && S.is_lower body.(i - 2).S.t
              && not (String.contains body.(i - 2).S.t '.')
            then begin
              let name = Cg.modkey d ^ "." ^ body.(i - 2).S.t in
              if not (Hashtbl.mem tbl name) then begin
                Hashtbl.replace tbl name !count;
                acc :=
                  {
                    l_id = !count;
                    l_name = name;
                    l_library = d.Cg.d_library;
                    l_file = d.Cg.d_file;
                    l_line = tk.S.tline;
                  }
                  :: !acc;
                incr count
              end
            end)
          body)
    g.Cg.defs;
  (Array.of_list (List.rev !acc), tbl)

(* Resolve a mutex-expression token to a lock id: [Obs.Span.completed_lock]
   by its last two components, [t.lock] / [w.qlock] by the enclosing module
   key plus the field name, a bare [completed_lock] by the enclosing module
   key plus the token. Unknown names resolve to [None] and are ignored. *)
let resolve_lock tbl (d : Cg.def) t =
  if t = "" || t = "(" then None
  else
    let name =
      if String.contains t '.' then
        match String.split_on_char '.' t with
        | first :: _ :: _ when S.is_upper first -> (
            match List.rev (String.split_on_char '.' t) with
            | name :: mk :: _ -> mk ^ "." ^ name
            | _ -> t)
        | _ -> Cg.modkey d ^ "." ^ S.last_component t
      else Cg.modkey d ^ "." ^ t
    in
    Hashtbl.find_opt tbl name

(* ------------------------------------------------------------------ *)
(* Finally spans                                                      *)
(* ------------------------------------------------------------------ *)

(* [finally_map body].(k) is, for tokens inside a [~finally:EXPR]
   argument, the index at which the enclosing [Fun.protect] application
   span ends (where the deferred finaliser conceptually runs); [-1]
   elsewhere. *)
let finally_map (body : S.tok array) =
  let n = Array.length body in
  let m = Array.make n (-1) in
  for i = 0 to n - 4 do
    if body.(i).S.t = "~" && body.(i + 1).S.t = "finally" && body.(i + 2).S.t = ":" then begin
      let start = i + 3 in
      let stop =
        if body.(start).S.t = "(" then min n (Cg.matching_close body start + 1) else min n (start + 1)
      in
      let rec back j =
        if j < 0 || i - j > 6 then None
        else if S.last_component body.(j).S.t = "protect" then Some j
        else back (j - 1)
      in
      let pend = match back (i - 1) with Some p -> Cg.arg_span body p | None -> stop in
      for k = start to stop - 1 do
        m.(k) <- pend
      done
    end
  done;
  m

(* ------------------------------------------------------------------ *)
(* Per-definition scan                                                *)
(* ------------------------------------------------------------------ *)

type scan_result = {
  sr_acquires : (int * int list * int) list;  (* lock, held before, token *)
  sr_regions : (int * int * int) list;  (* lock, start token, stop token *)
  sr_blocking : (int * string * int list) list;  (* token, op, effective held *)
  sr_calls : (int * int * int list) list;  (* token, callee, full held *)
  sr_rmw : (int * string) list;  (* token, atomic target *)
  sr_self : (int * int) list;  (* token, lock re-acquired while held *)
  sr_params_held : int list;  (* locks held at a formal-param occurrence *)
}

(* One linear walk over a body. [held] is the ordered held-lock set; a
   lock enters it on [Mutex.lock], on a [Mutex.protect] head (released at
   the end of the application span), or on a call to a wrapper definition
   (released likewise); it leaves on [Mutex.unlock] — except that an
   unlock inside a [~finally:] argument is deferred to the end of the
   enclosing [Fun.protect] span, which is when the finaliser runs. *)
let scan ~tbl ~io_locked ~wrapper ~sites (d : Cg.def) =
  let body = d.Cg.d_body in
  let n = Array.length body in
  let fin = finally_map body in
  let params = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace params p ()) (Cg.def_params d);
  let sites_at = Hashtbl.create 16 in
  List.iter (fun (tok, c) -> S.multi_add sites_at tok c) sites;
  (* [let NAME = Atomic.get TARGET] binders, for the RMW check. *)
  let binders = Hashtbl.create 4 in
  for j = 2 to n - 2 do
    if body.(j).S.t = "Atomic.get" && body.(j - 1).S.t = "=" && S.is_lower body.(j - 2).S.t && fin.(j) < 0
    then Hashtbl.replace binders body.(j - 2).S.t body.(j + 1).S.t
  done;
  (* Params only count as closure applications past the header. *)
  let header_end = Cg.header_end body in
  let held = ref [] in
  (* lock id, pending release index (max_int = explicit unlock) *)
  let starts = Hashtbl.create 4 in
  let acquires = ref [] and regions = ref [] and blocking = ref [] in
  let calls = ref [] and rmw = ref [] and self_acq = ref [] and params_held = ref [] in
  let held_ids () = List.map fst !held in
  let effective () = List.filter (fun l -> not io_locked.(l)) (held_ids ()) in
  let release ~at l =
    held := List.filter (fun (x, _) -> x <> l) !held;
    match Hashtbl.find_opt starts l with
    | Some s ->
        regions := (l, s, at) :: !regions;
        Hashtbl.remove starts l
    | None -> ()
  in
  let acquire ~at ~pend l =
    if List.mem_assoc l !held then self_acq := (at, l) :: !self_acq
    else begin
      acquires := (l, held_ids (), at) :: !acquires;
      held := (l, pend) :: !held;
      Hashtbl.replace starts l at
    end
  in
  let resolve_at j = if j < n then resolve_lock tbl d body.(j).S.t else None in
  for i = 0 to n - 1 do
    let due = List.filter (fun (_, p) -> p <= i) !held in
    List.iter (fun (l, _) -> release ~at:i l) due;
    let t = body.(i).S.t in
    if fin.(i) >= 0 then begin
      (* Inside a finaliser body: the only event that matters now is a
         deferred unlock; everything else runs at scope exit with a held
         set this linear scan does not model. *)
      if t = "Mutex.unlock" then
        match resolve_at (i + 1) with
        | Some l -> held := List.map (fun (x, p) -> if x = l then (x, min p fin.(i)) else (x, p)) !held
        | None -> ()
    end
    else begin
      (* A token that the graph resolved to a definition is only a call
         here when it is not a binder or a label pun: [fun labels ->] and
         [~labels] re-use names that by-file resolution maps to same-file
         definitions, and re-playing wrapper locks on those would invent
         critical sections. *)
      let binder_pos =
        i > 0
        &&
        match body.(i - 1).S.t with
        | "fun" | "~" | "?" | "let" | "and" | "rec" -> true
        | _ -> false
      in
      (match Hashtbl.find_opt sites_at i with
      | Some cs when not binder_pos ->
          List.iter
            (fun c ->
              if held_ids () <> [] then calls := (i, c, held_ids ()) :: !calls;
              List.iter (fun l -> acquire ~at:i ~pend:(Cg.arg_span body i) l) (wrapper c))
            cs
      | _ -> ());
      if t = "Mutex.lock" then (
        match resolve_at (i + 1) with Some l -> acquire ~at:i ~pend:max_int l | None -> ())
      else if t = "Mutex.unlock" then (
        match resolve_at (i + 1) with Some l -> release ~at:i l | None -> ())
      else if t = "Mutex.protect" || t = "Stdlib.Mutex.protect" then (
        match resolve_at (i + 1) with
        | Some l -> acquire ~at:i ~pend:(Cg.arg_span body i) l
        | None -> ())
      else if t = "Condition.wait" then begin
        (* [Condition.wait c m] releases [m] for the wait; waiting while
           holding any other lock blocks that lock's holders. *)
        let wm = resolve_at (i + 2) in
        let eff = List.filter (fun l -> Some l <> wm) (effective ()) in
        if eff <> [] then blocking := (i, "Condition.wait on a different mutex", eff) :: !blocking
      end
      else if is_blocking t then begin
        let eff = effective () in
        if eff <> [] then blocking := (i, t, eff) :: !blocking
      end
      else if t = "Atomic.set" && i + 1 < n && held_ids () = [] then begin
        (* Naked read-modify-write: the stored value depends on an
           [Atomic.get] of the same atomic — inline in the argument span,
           or through a [let]-binder — with no lock held and outside any
           finaliser (the save/restore idiom is sequential by design). *)
        let target = body.(i + 1).S.t in
        let stop = min (Cg.arg_span body i) n in
        let fired = ref false in
        for j = i + 2 to stop - 1 do
          let tj = body.(j).S.t in
          if
            (tj = "Atomic.get" && j + 1 < n && body.(j + 1).S.t = target)
            || match Hashtbl.find_opt binders tj with Some tgt -> tgt = target | None -> false
          then fired := true
        done;
        if !fired then rmw := (i, target) :: !rmw
      end;
      if i > header_end && Hashtbl.mem params t && held_ids () <> [] && Cg.applied_at d i then
        List.iter (fun l -> params_held := l :: !params_held) (held_ids ())
    end
  done;
  List.iter (fun (l, _) -> release ~at:n l) !held;
  {
    sr_acquires = List.rev !acquires;
    sr_regions = List.rev !regions;
    sr_blocking = List.rev !blocking;
    sr_calls = List.rev !calls;
    sr_rmw = List.rev !rmw;
    sr_self = List.rev !self_acq;
    sr_params_held = List.sort_uniq Int.compare !params_held;
  }

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let lock_order_cycle =
  Finding.rule ~section:"locks" "lock-order-cycle"
    "two locks acquired in opposite orders somewhere in the program (potential deadlock), or a \
     mutex re-acquired while already held"

let blocking_under_lock =
  Finding.rule ~level:Warn ~section:"budget" "blocking-under-lock"
    "blocking or IO operation reachable while a lock is held (warn; budgeted)"

let lock_held_io =
  Finding.rule ~section:"locks" "lock-held-io"
    "blocking or IO operation under a lock on the declared serve hot path"

let atomic_rmw =
  Finding.rule ~section:"locks" "atomic-rmw"
    "naked Atomic.get-then-Atomic.set read-modify-write on the same atomic; use \
     compare_and_set/fetch_and_add"

let useless_lock =
  Finding.rule ~level:Warn ~section:"budget" "useless-lock"
    "mutex never acquired, or whose critical sections guard nothing (warn)"

let lock_manifest =
  Finding.rule ~section:"locks" "lock-manifest"
    "a locks-section entry of check/analyze.json does not resolve, an unknown key, or a \
     certified-surface lock missing from the declared order"

let rules =
  [ lock_order_cycle; blocking_under_lock; lock_held_io; atomic_rmw; useless_lock; lock_manifest ]

let locks (g : Cg.t) =
  let ls, _ = harvest g in
  Array.to_list (Array.map (fun l -> (l.l_name, l.l_file, l.l_line)) ls)

let analyze ?(where = Manifest.path) ?(manifest = []) (g : Cg.t) =
  let defs = g.Cg.defs in
  let nd = Array.length defs in
  let locks, tbl = harvest g in
  let nl = Array.length locks in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let manifest_err msg = add (Finding.emit lock_manifest ~where msg) in
  (* ---- manifest ---- *)
  List.iter
    (fun (key, _) ->
      match key with
      | "order" | "io_locks" | "hot" | "surface" -> ()
      | _ ->
          manifest_err
            (Printf.sprintf
               "unknown manifest key %S (expected \"order\", \"io_locks\", \"hot\" or \"surface\")"
               key))
    manifest;
  let lock_list key =
    Option.value (List.assoc_opt key manifest) ~default:[]
    |> List.filter_map (fun name ->
           let id = Hashtbl.find_opt tbl name in
           if id = None then
             manifest_err (Printf.sprintf "%s entry %s does not name a known mutex" key name);
           id)
  in
  let declared_order = lock_list "order" in
  let io_locked = Array.make (max nl 1) false in
  List.iter (fun l -> io_locked.(l) <- true) (lock_list "io_locks");
  let hot_defs =
    Option.value (List.assoc_opt "hot" manifest) ~default:[]
    |> Cg.resolve_entries g ~add ~rule:lock_manifest ~where
         ~unresolved:(Printf.sprintf "hot entrypoint %s does not resolve to any definition")
  in
  let hot_reach =
    match hot_defs with
    | [] -> Array.make nd false
    | ds -> Cg.reachable g ~roots:(List.map (fun (d : Cg.def) -> d.Cg.d_id) ds)
  in
  (* surface: every lock living in a certified module must appear in the
     declared order, so the canonical order stays total over the surface. *)
  (match List.assoc_opt "surface" manifest with
  | None -> ()
  | Some entries ->
      let mod_of_lock l =
        match String.index_opt l.l_name '.' with
        | Some i -> String.sub l.l_name 0 i
        | None -> l.l_name
      in
      let covers entry l =
        match String.split_on_char '.' entry with
        | [ single ] ->
            String.lowercase_ascii single = l.l_library || single = mod_of_lock l
        | comps -> (
            match List.rev comps with mk :: _ -> mk = mod_of_lock l | [] -> false)
      in
      let in_order = Hashtbl.create 16 in
      List.iter (fun l -> Hashtbl.replace in_order l ()) declared_order;
      Array.iter
        (fun l ->
          if List.exists (fun e -> covers e l) entries && not (Hashtbl.mem in_order l.l_id) then
            manifest_err
              (Printf.sprintf
                 "lock %s is in the certified surface but missing from the declared \"order\""
                 l.l_name))
        locks);
  begin
    let scan_all wrapper =
      Array.map
        (fun (d : Cg.def) ->
          if d.Cg.d_entry then None
          else Some (scan ~tbl ~io_locked ~wrapper ~sites:g.Cg.sites.(d.Cg.d_id) d))
        defs
    in
    (* ---- pass 1: wrapper detection (no wrapper spans yet) ---- *)
    let wrapper_locks =
      Array.mapi
        (fun i r ->
          match r with
          | Some r when Cg.applies_params defs.(i) -> r.sr_params_held
          | _ -> [])
        (scan_all (fun _ -> []))
    in
    (* ---- pass 2: full event scan with wrapper spans ---- *)
    let results = scan_all (fun c -> wrapper_locks.(c)) in
    (* ---- may-acquire and may-block summaries ---- *)
    let acq =
      Cg.propagate g ~join:Ints.union ~equal:Ints.equal ~init:(fun i ->
          match results.(i) with
          | Some r -> Ints.of_list (List.map (fun (l, _, _) -> l) r.sr_acquires)
          | None -> Ints.empty)
    in
    let direct_block =
      Array.map
        (fun (d : Cg.def) ->
          Array.exists (fun tk -> is_blocking tk.S.t || tk.S.t = "Condition.wait") d.Cg.d_body)
        defs
    in
    let blk = Cg.propagate g ~init:(fun i -> direct_block.(i)) ~join:( || ) ~equal:Bool.equal in
    (* ---- order graph ---- *)
    let edges = Hashtbl.create 32 in
    let add_edge h l w = if h <> l && not (Hashtbl.mem edges (h, l)) then Hashtbl.replace edges (h, l) w in
    Array.iter
      (fun (d : Cg.def) ->
        match results.(d.Cg.d_id) with
        | None -> ()
        | Some r ->
            List.iter
              (fun (l, held_before, tok) ->
                List.iter
                  (fun h ->
                    add_edge h l
                      (Printf.sprintf "%s (%s) acquires %s while holding %s" (Cg.qualified d)
                         (Cg.where_at d tok) locks.(l).l_name locks.(h).l_name))
                  held_before)
              r.sr_acquires;
            List.iter
              (fun (tok, c, held) ->
                Ints.iter
                  (fun l ->
                    List.iter
                      (fun h ->
                        add_edge h l
                          (Printf.sprintf "%s (%s) calls %s which may acquire %s while holding %s"
                             (Cg.qualified d) (Cg.where_at d tok)
                             (Cg.qualified defs.(c))
                             locks.(l).l_name locks.(h).l_name))
                      held)
                  (Ints.diff acq.(c) (Ints.of_list held)))
              r.sr_calls)
      defs;
    (* Declared edges: the manifest order is the canonical total order; a
       declared edge only fills in where no actual edge gives a better
       witness, and contradiction with actual edges shows up as a cycle. *)
    let rec declared_pairs = function
      | [] -> ()
      | x :: rest ->
          List.iter
            (fun y ->
              add_edge x y
                (Printf.sprintf "declared order in %s (%s before %s)" where locks.(x).l_name
                   locks.(y).l_name))
            rest;
          declared_pairs rest
    in
    declared_pairs declared_order;
    (* ---- cycles: lock pairs with an order path both ways ---- *)
    let all_locks = List.init nl Fun.id in
    let succ x = List.filter (fun y -> Hashtbl.mem edges (x, y)) all_locks in
    let rec steps = function a :: (b :: _ as rest) -> (a, b) :: steps rest | _ -> [] in
    (* The edge witnesses along a shortest order path from [u] to [v]. *)
    let path u v =
      Cg.shortest_path ~n:nl ~succ ~from:u ~target:(Int.equal v)
      |> Option.map (fun ids -> List.filter_map (Hashtbl.find_opt edges) (steps ids))
    in
    for u = 0 to nl - 1 do
      for v = u + 1 to nl - 1 do
        match (path u v, path v u) with
        | Some uv, Some vu ->
            add
              (Finding.emit lock_order_cycle
                 ~where:(Printf.sprintf "%s:%d" locks.(u).l_file locks.(u).l_line)
                 (Printf.sprintf "%s and %s are acquired in both orders: [%s] vs [%s]"
                    locks.(u).l_name locks.(v).l_name (String.concat "; " uv)
                    (String.concat "; " vu)))
        | _ -> ()
      done
    done;
    (* ---- per-definition findings ---- *)
    let used = Array.make nl false in
    let locked_once = Array.make nl false in
    Array.iter
      (fun (d : Cg.def) ->
        match results.(d.Cg.d_id) with
        | None -> ()
        | Some r ->
            List.iter
              (fun (tok, l) ->
                add
                  (Finding.emit lock_order_cycle ~where:(Cg.where_at d tok)
                     (Printf.sprintf
                        "%s re-acquires %s while already holding it (OCaml mutexes are not \
                         reentrant)"
                        (Cg.qualified d) locks.(l).l_name)))
              r.sr_self;
            let names ls = String.concat ", " (List.map (fun l -> locks.(l).l_name) ls) in
            let blocking = if hot_reach.(d.Cg.d_id) then lock_held_io else blocking_under_lock in
            List.iter
              (fun (tok, op, eff) ->
                add
                  (Finding.emit blocking ~where:(Cg.where_at d tok)
                     (Printf.sprintf "%s: %s while holding %s" (Cg.qualified d) op (names eff))))
              r.sr_blocking;
            List.iter
              (fun (tok, c, held) ->
                let eff = List.filter (fun l -> not io_locked.(l)) held in
                if eff <> [] && blk.(c) then begin
                  let chain = Cg.via g ~from:c ~target:(fun j -> direct_block.(j)) in
                  add
                    (Finding.emit blocking ~where:(Cg.where_at d tok)
                       (Printf.sprintf "%s calls %s, which may block (%s), while holding %s"
                          (Cg.qualified d) (Cg.qualified defs.(c)) chain (names eff)))
                end)
              r.sr_calls;
            List.iter
              (fun (tok, target) ->
                add
                  (Finding.emit atomic_rmw ~where:(Cg.where_at d tok)
                     (Printf.sprintf
                        "%s: naked Atomic.get-then-Atomic.set read-modify-write on %s; use a \
                         compare_and_set retry loop or fetch_and_add"
                        (Cg.qualified d) target)))
              r.sr_rmw;
            (* useless-lock evidence: anything in a critical section that
               plausibly touches shared state — a field/module access, a
               mutation operator, or a resolved call. *)
            let body = d.Cg.d_body in
            let nb = Array.length body in
            List.iter
              (fun (l, start, stop) ->
                locked_once.(l) <- true;
                if not used.(l) then begin
                  let evidence_tok tj =
                    tj = "<-" || tj = ":=" || tj = "!" || tj = "incr" || tj = "decr"
                    || (String.contains tj '.'
                       && tj.[0] <> '.'
                       && (not (S.is_number tj))
                       && (not (String.starts_with ~prefix:"Mutex." tj))
                       && (not (String.starts_with ~prefix:"Condition." tj))
                       && (not (String.starts_with ~prefix:"Fun." tj))
                       && resolve_lock tbl d tj = None)
                  in
                  for j = start + 1 to min (stop - 1) (nb - 1) do
                    if evidence_tok body.(j).S.t then used.(l) <- true
                  done;
                  (* A site only counts when it is not the mutex itself:
                     the lock name resolves to its own defining binding. *)
                  List.iter
                    (fun (tok, _) ->
                      if
                        tok > start && tok < stop
                        && resolve_lock tbl d body.(tok).S.t = None
                      then used.(l) <- true)
                    g.Cg.sites.(d.Cg.d_id)
                end)
              r.sr_regions)
      defs;
    Array.iter
      (fun l ->
        let useless what =
          add
            (Finding.emit useless_lock
               ~where:(Printf.sprintf "%s:%d" l.l_file l.l_line)
               (Printf.sprintf "mutex %s %s" l.l_name what))
        in
        if not locked_once.(l.l_id) then useless "is never acquired"
        else if not used.(l.l_id) then useless "is acquired but its critical sections guard nothing")
      locks;
    List.rev !findings
  end
