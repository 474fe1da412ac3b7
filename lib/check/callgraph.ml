(* Heuristic project-wide call graph over toplevel definitions, built from
   the one Srclint lexing of each file; tuned to this repo's ocamlformat
   layout (column-1 toplevel items, column-3 items inside a column-1
   [module _ = struct]).
   See callgraph.mli and DESIGN.md §10 for the accepted blind spots. *)

module S = Srclint
module Ints = Set.Make (Int)

type source = {
  sc_file : string;
  sc_library : string;
  sc_entry : bool;
  sc_test : bool;
  sc_text : string;
}

type def = {
  d_id : int;
  d_library : string;
  d_module : string;
  d_name : string;
  d_file : string;
  d_line : int;
  d_entry : bool;
  d_test : bool;
  d_public : bool;
  d_body : S.tok array;
}

type vdecl = {
  v_file : string;
  v_library : string;
  v_module : string;
  v_name : string;
  v_line : int;
  v_raise_doc : bool;
}

type file = { f_path : string; f_library : string; f_entry_tree : bool; f_lex : S.lexed }

type t = {
  defs : def array;
  callees : int list array;
  sites : (int * int) list array;
  vals : vdecl list;
  files : file list;
}

(* ------------------------------------------------------------------ *)
(* Small string helpers                                               *)
(* ------------------------------------------------------------------ *)

let split_dots s = String.split_on_char '.' s

let find_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = if i + m > n then None else if String.sub text i m = sub then Some i else at (i + 1) in
  if m > 0 then at 0 else None

let contains_sub text sub = find_sub text sub <> None

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* ------------------------------------------------------------------ *)
(* Definition extraction from one .ml file                            *)
(* ------------------------------------------------------------------ *)

(* Column-1 tokens that end the previous definition's body; a table because
   the membership test runs once per token of every scanned file. *)
let boundary_kw =
  S.table
    [ "let"; "and"; "type"; "module"; "open"; "exception"; "include"; "end"; "val"; "class";
      "external" ]

type mark = { m_idx : int; m_def : (string * string * int) option }
(* m_def = Some (module_path, name, line) for a definition start. *)

let is_attr t = String.length t >= 2 && t.[0] = '[' && t.[1] = '@'

let name_index (toks : S.tok array) i =
  let n = Array.length toks in
  let rec skip j =
    if j >= n then j
    else
      let t = toks.(j).S.t in
      if is_attr t then skip (j + 1)
      else if t = "%" then skip (j + 2)
      else if t = "rec" then skip (j + 1)
      else j
  in
  skip (i + 1)

(* Operators. The lexer keeps only a few two-character operators whole,
   so [+:] arrives as [+] then [:]: a run of symbol tokens on one line at
   consecutive columns spells one operator. *)
let is_symbol t = t <> "" && String.contains "!$%&*+-./:<=>?@^|~#" t.[0]

let continues_run (toks : S.tok array) j =
  j > 0
  &&
  let p = toks.(j - 1) and c = toks.(j) in
  is_symbol c.S.t && is_symbol p.S.t && c.S.tline = p.S.tline
  && c.S.tcol = p.S.tcol + String.length p.S.t

(* The operator spelled by the symbol run that starts at token [i]. *)
let symbol_run (toks : S.tok array) i =
  let rec go j acc =
    if j < Array.length toks && continues_run toks j then go (j + 1) (acc ^ toks.(j).S.t) else acc
  in
  go (i + 1) toks.(i).S.t

(* Name of the definition whose [let]/[and] keyword is at token [i]:
   ["()"] for unit bindings, the full operator symbol for [let ( +: ) ...],
   ["_"] for wildcard or destructuring patterns. *)
let def_name (toks : S.tok array) i =
  let n = Array.length toks in
  let j = name_index toks i in
  if j >= n then "_"
  else
    let tj = toks.(j).S.t in
    if tj = "(" then
      if j + 1 >= n then "_"
      else if toks.(j + 1).S.t = ")" then "()"
      else if is_symbol toks.(j + 1).S.t then symbol_run toks (j + 1)
      else toks.(j + 1).S.t
    else if S.is_lower tj then tj
    else "_"

let defs_of_ml ~library ~entry ~test ~file toks =
  let n = Array.length toks in
  let file_module = module_of_file file in
  let marks = ref [] in
  let aliases = Hashtbl.create 7 in
  let submod = ref None in
  (* Whether the previous column-1 / column-3 item was a [let]/[and]
     definition, so that a following [and] continues the chain (as opposed
     to [type t = ... and u = ...]). *)
  let chain1 = ref false and chain3 = ref false in
  let add_boundary i = marks := { m_idx = i; m_def = None } :: !marks in
  let add_def i ~module_path =
    marks := { m_idx = i; m_def = Some (module_path, def_name toks i, toks.(i).S.tline) } :: !marks
  in
  let tok_at j = if j < n then toks.(j).S.t else "" in
  for i = 0 to n - 1 do
    let { S.t; tcol; _ } = toks.(i) in
    if tcol = 1 then begin
      (match t with
      | "let" ->
          submod := None;
          add_def i ~module_path:file_module
      | "and" when !chain1 -> add_def i ~module_path:file_module
      | "module" ->
          if tok_at (i + 1) <> "type" then begin
            let name = tok_at (i + 1) in
            if S.is_upper name && tok_at (i + 2) = "=" then begin
              let rhs = tok_at (i + 3) in
              if rhs = "struct" then submod := Some name
              else if S.is_upper rhs then Hashtbl.replace aliases name rhs
            end
            else if S.is_upper name && tok_at (i + 2) = ":" then begin
              (* [module X : SIG = struct]: look a few tokens ahead. *)
              let rec scan j k =
                if k = 0 || j >= n then ()
                else if toks.(j).S.t = "struct" then submod := Some name
                else scan (j + 1) (k - 1)
              in
              scan (i + 3) 8
            end
          end;
          add_boundary i
      | "end" ->
          submod := None;
          add_boundary i
      | kw when Hashtbl.mem boundary_kw kw -> add_boundary i
      | _ -> ());
      if Hashtbl.mem boundary_kw t then chain1 := t = "let" || (t = "and" && !chain1)
    end
    else if tcol = 3 then begin
      (match (!submod, t) with
      | Some m, "let" -> add_def i ~module_path:(file_module ^ "." ^ m)
      | Some m, "and" when !chain3 -> add_def i ~module_path:(file_module ^ "." ^ m)
      | Some _, kw when Hashtbl.mem boundary_kw kw -> add_boundary i
      | _ -> ());
      if !submod <> None && Hashtbl.mem boundary_kw t then
        chain3 := t = "let" || (t = "and" && !chain3)
    end
  done;
  let marks = Array.of_list (List.rev !marks) in
  let defs = ref [] in
  Array.iteri
    (fun k { m_idx; m_def } ->
      match m_def with
      | None -> ()
      | Some (module_path, name, line) ->
          let stop = if k + 1 < Array.length marks then marks.(k + 1).m_idx else n in
          let body = Array.sub toks m_idx (stop - m_idx) in
          defs :=
            {
              d_id = 0 (* assigned later *);
              d_library = library;
              d_module = module_path;
              d_name = name;
              d_file = file;
              d_line = line;
              d_entry = entry;
              d_test = test;
              d_public = false (* assigned later *);
              d_body = body;
            }
            :: !defs)
    marks;
  (List.rev !defs, aliases)

(* ------------------------------------------------------------------ *)
(* val declarations (and @raise docs) from one .mli file              *)
(* ------------------------------------------------------------------ *)

let vals_of_mli ~library ~file (lexed : S.lexed) =
  let toks = lexed.toks in
  let n = Array.length toks in
  let file_module = module_of_file file in
  (* The lines of doc comments that mention @raise; a plain comment
     documents nothing. *)
  let raise_lines =
    List.concat_map
      (fun (c : S.comment) ->
        if not c.c_doc then []
        else
          List.concat
            (List.mapi
               (fun k line -> if contains_sub line "@raise" then [ c.c_line + k ] else [])
               (String.split_on_char '\n' c.c_text)))
      lexed.comments
  in
  let decls = ref [] in
  for i = 0 to n - 1 do
    let { S.t; tcol; tline } = toks.(i) in
    if tcol = 1 && (t = "val" || t = "external") && i + 1 < n then begin
      let name =
        let t1 = toks.(i + 1).S.t in
        if t1 = "(" && i + 2 < n then toks.(i + 2).S.t else t1
      in
      if S.is_lower name then decls := (name, tline) :: !decls
    end
  done;
  let decls = List.rev !decls in
  let rec attach = function
    | [] -> []
    | (name, line) :: rest ->
        let next_line = match rest with (_, l) :: _ -> l | [] -> max_int in
        (* After-style doc convention: the comment sits between this val
           and the next declaration. *)
        let documented = List.exists (fun l -> l >= line && l < next_line) raise_lines in
        {
          v_file = file;
          v_library = library;
          v_module = file_module;
          v_name = name;
          v_line = line;
          v_raise_doc = documented;
        }
        :: attach rest
  in
  attach decls

(* ------------------------------------------------------------------ *)
(* Spans, formal parameters, closure arguments                        *)
(* ------------------------------------------------------------------ *)

(* Tokens that end an application span at their bracket level; the same
   set Cost uses for its pending-iteration spans, so the two layers agree
   on where an argument list stops. *)
let span_stop_toks =
  S.table [ ";"; ","; "in"; "done"; "then"; "else"; "with"; "|"; "|>"; "let"; "and"; "end"; "do" ]

let span_stop t = Hashtbl.mem span_stop_toks t

(* First index from [i] on whose token, with the bracket depth relative
   to [i] that it leaves, satisfies [stop]; the body length if none does.
   The one bracket walker behind spans, matching brackets and headers. *)
let scan_to (body : S.tok array) i stop =
  let n = Array.length body in
  let rec go j level =
    if j >= n then n
    else
      let t = body.(j).S.t in
      let level =
        match t with "(" | "[" | "{" -> level + 1 | ")" | "]" | "}" -> level - 1 | _ -> level
      in
      if stop t level then j else go (j + 1) level
  in
  go i 0

let matching_close body i = scan_to body i (fun _ level -> level = 0)
let arg_span body i = scan_to body (i + 1) (fun t level -> level < 0 || (level = 0 && span_stop t))
(* The scan starts past the bound name, so a parenthesised name
   ([let ( >>= ) m f =]) closes a bracket it never opened and finds no
   [=] at level 0: such bindings have no header end and no parameters. *)
let header_end body = scan_to body (name_index body 0 + 1) (fun t level -> level = 0 && t = "=")

let def_params (d : def) =
  let body = d.d_body in
  let stop = header_end body in
  let params = ref [] in
  let seen = Hashtbl.create 8 in
  if stop < Array.length body then
    for j = name_index body 0 + 1 to stop - 1 do
      let t = body.(j).S.t in
      if S.is_lower t && t <> "_" && (not (String.contains t '.')) && not (Hashtbl.mem seen t) then begin
        Hashtbl.replace seen t ();
        params := t :: !params
      end
    done;
  List.rev !params

(* Keywords that can follow an identifier without making it a function
   head ([if p then ...] does not apply [p]). *)
let application_keywords =
  S.table
    [ "then"; "else"; "in"; "do"; "done"; "with"; "when"; "and"; "begin"; "end"; "rec"; "fun";
      "function"; "match"; "let"; "if"; "try"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
      "or"; "not"; "as"; "of"; "to"; "downto"; "while"; "for" ]

(* Tokens after which an expression (and hence a function application)
   can start; [a b] with [a] in argument position is preceded by another
   identifier, which is not in this set, so curried-argument runs do not
   look like applications of their members. *)
let expr_starters =
  S.table [ ";"; "="; "->"; "("; "["; "{"; "begin"; "in"; "then"; "else"; "@@"; "|>"; ","; "|"; ":" ]

(* Whether the identifier token at [i] is syntactically applied: it heads
   an application (an expression can start here and an argument follows),
   or it is handed to a [*.protect]-style combinator as the final thunk
   ([Fun.protect ~finally:(...) f]). *)
let applied_at (d : def) i =
  let body = d.d_body in
  let n = Array.length body in
  let protect_before i =
    let lo = max 0 (i - 14) in
    let rec look j = j >= lo && (S.last_component body.(j).S.t = "protect" || look (j - 1)) in
    look (i - 1)
  in
  protect_before i
  ||
  let next_ok =
    i + 1 < n
    &&
    let t = body.(i + 1).S.t in
    t = "(" || t = "~" || t = "!"
    || S.is_number t
    || ((S.is_lower t || S.is_upper t) && not (Hashtbl.mem application_keywords t))
  in
  let prev_ok = i > 0 && Hashtbl.mem expr_starters body.(i - 1).S.t in
  next_ok && prev_ok

(* A def is higher-order through parameter [p] when some occurrence of [p]
   in the body sits in application position ([let r = p x in ...]) or is
   handed to a protect-style combinator. *)
let applies_params (d : def) =
  match def_params d with
  | [] -> false
  | params ->
      let ptbl = Hashtbl.create 8 in
      List.iter (fun p -> Hashtbl.replace ptbl p ()) params;
      let body = d.d_body in
      let n = Array.length body in
      let applied = ref false in
      for i = 1 to n - 1 do
        if (not !applied) && Hashtbl.mem ptbl body.(i).S.t && applied_at d i then applied := true
      done;
      !applied

(* ------------------------------------------------------------------ *)
(* Graph assembly                                                     *)
(* ------------------------------------------------------------------ *)

let modkey d = S.last_component d.d_module

let narrow ~library ~hint def_of cands =
  if hint = "" then
    let same = List.filter (fun c -> (def_of c).d_library = library) cands in
    if same = [] then cands else same
  else
    List.filter
      (fun c ->
        let d = def_of c in
        String.capitalize_ascii d.d_library = hint
        || List.exists (String.equal hint) (split_dots d.d_module))
      cands

let build_sources ?(entries = []) sources =
  (* The one lexing of every file; each pass below reads it. *)
  let lex entry_tree s =
    let s = { s with sc_entry = s.sc_entry || entry_tree } in
    let lexed = S.clean s.sc_text in
    (s, { f_path = s.sc_file; f_library = s.sc_library; f_entry_tree = entry_tree; f_lex = lexed })
  in
  let lexed = List.concat [ List.map (lex false) sources; List.map (lex true) entries ] in
  let ml, mli = List.partition (fun (s, _) -> Filename.check_suffix s.sc_file ".ml") lexed in
  let vals =
    List.concat_map (fun (s, f) -> vals_of_mli ~library:s.sc_library ~file:s.sc_file f.f_lex) mli
  in
  (* Library modules that have an .mli: their surface is the val list. *)
  let mli_modules = Hashtbl.create 16 in
  let mli_vals = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace mli_modules (v.v_library, v.v_module) ();
      Hashtbl.replace mli_vals (v.v_library, v.v_module, v.v_name) ())
    vals;
  List.iter
    (fun (s, _) ->
      if Filename.check_suffix s.sc_file ".mli" then
        Hashtbl.replace mli_modules (s.sc_library, module_of_file s.sc_file) ())
    mli;
  let per_file =
    List.map
      (fun (s, f) ->
        ( s,
          defs_of_ml ~library:s.sc_library ~entry:s.sc_entry ~test:s.sc_test ~file:s.sc_file
            f.f_lex.S.toks ))
      ml
  in
  let all = List.concat_map (fun (_, (ds, _)) -> ds) per_file in
  let defs =
    Array.of_list
      (List.mapi
         (fun i d ->
           let file_mod = module_of_file d.d_file in
           let has_mli = Hashtbl.mem mli_modules (d.d_library, file_mod) in
           let public =
             (not d.d_entry)
             &&
             if has_mli then
               d.d_module = file_mod && Hashtbl.mem mli_vals (d.d_library, file_mod, d.d_name)
             else true
           in
           { d with d_id = i; d_public = public })
         all)
  in
  (* Resolution indices. *)
  let by_modkey = Hashtbl.create 256 in
  let by_file = Hashtbl.create 256 in
  let by_op = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      S.multi_add by_modkey (modkey d ^ "." ^ d.d_name) d.d_id;
      S.multi_add by_file (d.d_file ^ ":" ^ d.d_name) d.d_id;
      if is_symbol d.d_name then S.multi_add by_op d.d_name d.d_id)
    defs;
  (* One flat alias table, pre-split: "file:name" -> reversed components of
     the alias target, so the splice below is a rev_append not an append. *)
  let rev_alias = Hashtbl.create 64 in
  List.iter
    (fun (s, (_, al)) ->
      Hashtbl.iter
        (fun name target ->
          if target <> name then
            Hashtbl.replace rev_alias (s.sc_file ^ ":" ^ name) (List.rev (split_dots target)))
        al)
    per_file;
  let callees = Array.make (Array.length defs) [] in
  let sites = Array.make (Array.length defs) [] in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      Hashtbl.reset seen;
      let site = ref 0 in
      let add id =
        if id <> d.d_id then begin
          sites.(d.d_id) <- (!site, id) :: sites.(d.d_id);
          if not (Hashtbl.mem seen id) then Hashtbl.replace seen id ()
        end
      in
      Array.iteri
        (fun tok_idx { S.t; _ } ->
          site := tok_idx;
          if is_symbol t then begin
            (* An operator use, [U.( +: ) a b] or [U.(a +: b)]: the run
               links to every definition it spells, narrowed by library. *)
            if not (continues_run d.d_body tok_idx) then
              match Hashtbl.find_opt by_op (symbol_run d.d_body tok_idx) with
              | Some cands ->
                  List.iter add (narrow ~library:d.d_library ~hint:"" (fun i -> defs.(i)) cands)
              | None -> ()
          end
          else if String.contains t '.' then begin
            match split_dots t with
            | first :: rest when S.is_upper first ->
                let comps =
                  match Hashtbl.find_opt rev_alias (d.d_file ^ ":" ^ first) with
                  | Some rev_target -> List.rev_append rev_target rest
                  | None -> first :: rest
                in
                (* components: [...; hint; mk; name] *)
                let rec split3 = function
                  | [ mk; name ] -> Some ("", mk, name)
                  | [ h; mk; name ] -> Some (h, mk, name)
                  | _ :: (_ :: _ :: _ :: _ as tl) -> split3 tl
                  | _ -> None
                in
                (match split3 comps with
                | Some (h, mk, name) when S.is_lower name && S.is_upper mk ->
                    (match Hashtbl.find_opt by_modkey (mk ^ "." ^ name) with
                    | None -> ()
                    | Some cands ->
                        List.iter add (narrow ~library:d.d_library ~hint:h (fun i -> defs.(i)) cands))
                | _ -> ())
            | _ -> ()
          end
          else if S.is_lower t then
            match Hashtbl.find_opt by_file (d.d_file ^ ":" ^ t) with
            | Some cands -> List.iter add cands
            | None -> ())
        d.d_body;
      callees.(d.d_id) <- List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []);
      sites.(d.d_id) <- List.rev sites.(d.d_id))
    defs;
  (* One-step closure-argument resolution: a definition that applies one
     of its formal parameters ([let locked t f = ... f () ...]) gains an
     edge to every same-file definition passed to it as a bare identifier
     argument, so witness chains no longer stop at the wrapper. Only the
     wrapper's [callees] row is extended — [sites] keeps the caller's
     lexical truth, which {!Cost} weights by loop depth. *)
  let applies = Array.map applies_params defs in
  let closure_edges = Hashtbl.create 32 in
  Array.iter
    (fun d ->
      List.iter
        (fun (i, c) ->
          if applies.(c) then begin
            let stop = arg_span d.d_body i in
            let level = ref 0 in
            for j = i + 1 to min (stop - 1) (Array.length d.d_body - 1) do
              let t = d.d_body.(j).S.t in
              match t with
              | "(" | "[" | "{" -> incr level
              | ")" | "]" | "}" -> decr level
              | t
                when !level = 0 && S.is_lower t && t <> "_" && not (String.contains t '.') -> (
                  match Hashtbl.find_opt by_file (d.d_file ^ ":" ^ t) with
                  | Some cands ->
                      List.iter
                        (fun id -> if id <> c then Hashtbl.replace closure_edges (c, id) ())
                        cands
                  | None -> ())
              | _ -> ()
            done
          end)
        sites.(d.d_id))
    defs;
  let extra = Array.make (Array.length defs) [] in
  Hashtbl.iter (fun (c, id) () -> extra.(c) <- id :: extra.(c)) closure_edges;
  Array.iteri
    (fun c ids ->
      if ids <> [] then
        callees.(c) <-
          List.sort_uniq Int.compare (List.rev_append ids callees.(c)))
    extra;
  { defs; callees; sites; vals; files = List.map snd lexed }

(* ------------------------------------------------------------------ *)
(* Directory walking and dune stanza sniffing                         *)
(* ------------------------------------------------------------------ *)

let dune_info dir =
  let f = Filename.concat dir "dune" in
  if not (Sys.file_exists f) then None
  else begin
    let text = S.read_file f in
    let test = contains_sub text "(test" in
    let entry = test || contains_sub text "(executable" in
    let name =
      match find_sub text "(name" with
      | None -> None
      | Some i ->
          let len = String.length text in
          let j = ref (i + 5) in
          if !j < len && text.[!j] = 's' then incr j;
          while !j < len && (text.[!j] = ' ' || text.[!j] = '\n' || text.[!j] = '\t') do
            incr j
          done;
          let start = !j in
          while
            !j < len
            && (match text.[!j] with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
               | _ -> false)
          do
            incr j
          done;
          if !j > start then Some (String.sub text start (!j - start)) else None
    in
    Some (name, entry, test)
  end

let rec gather inherited acc path =
  if Sys.is_directory path then begin
    let info =
      match dune_info path with
      | Some (nameopt, entry, test) ->
          let name = match nameopt with Some n -> n | None -> Filename.basename path in
          let entry, test =
            match inherited with Some (_, e, t) -> (entry || e, test || t) | None -> (entry, test)
          in
          Some (name, entry, test)
      | None -> inherited
    in
    let names = Sys.readdir path in
    Array.sort String.compare names;
    Array.iter
      (fun e ->
        if String.length e > 0 && e.[0] <> '.' && e.[0] <> '_' then
          gather info acc (Filename.concat path e))
      names
  end
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then begin
    let lib, entry, test =
      match inherited with
      | Some info -> info
      | None -> (Filename.basename (Filename.dirname path), false, false)
    in
    let text = S.read_file path in
    acc := { sc_file = path; sc_library = lib; sc_entry = entry; sc_test = test; sc_text = text } :: !acc
  end

let build ?(entries = []) dirs =
  let walk paths =
    let acc = ref [] in
    List.iter (gather None acc) paths;
    List.rev !acc
  in
  build_sources ~entries:(walk entries) (walk dirs)

let per_file ?(entry_trees = true) g pass =
  List.concat_map
    (fun f -> if entry_trees || not f.f_entry_tree then pass ~file:f.f_path f.f_lex else [])
    g.files

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let fixpoint ~n ~init ~step ~equal =
  let v = Array.init n init in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let x = step v i in
      if not (equal x v.(i)) then begin
        v.(i) <- x;
        changed := true
      end
    done
  done;
  v

let propagate g ~init ~join ~equal =
  fixpoint ~n:(Array.length g.defs) ~init ~equal ~step:(fun v i ->
      List.fold_left (fun acc j -> join acc v.(j)) v.(i) g.callees.(i))

let reachable g ~roots =
  let n = Array.length g.defs in
  let seen = Array.make n false in
  let rec visit i =
    if i >= 0 && i < n && not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit g.callees.(i)
    end
  in
  List.iter visit roots;
  seen

let shortest_path ~n ~succ ~from ~target =
  if from < 0 || from >= n then None
  else begin
    let parent = Array.make n (-2) in
    let q = Queue.create () in
    parent.(from) <- -1;
    Queue.add from q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let i = Queue.pop q in
      if target i then found := Some i
      else
        List.iter
          (fun j ->
            if parent.(j) = -2 then begin
              parent.(j) <- i;
              Queue.add j q
            end)
          (succ i)
    done;
    match !found with
    | None -> None
    | Some stop ->
        let rec unwind i acc = if parent.(i) = -1 then i :: acc else unwind parent.(i) (i :: acc) in
        Some (unwind stop [])
  end

let witness g = shortest_path ~n:(Array.length g.defs) ~succ:(fun i -> g.callees.(i))
let qualified d = d.d_module ^ "." ^ d.d_name
let where_of d = Printf.sprintf "%s:%d" d.d_file d.d_line

let where_at d tok =
  let line = if tok < Array.length d.d_body then d.d_body.(tok).S.tline else d.d_line in
  Printf.sprintf "%s:%d" d.d_file line

let via g ~from ~target =
  match witness g ~from ~target with
  | Some ids -> String.concat " -> " (List.map (fun i -> qualified g.defs.(i)) ids)
  | None -> qualified g.defs.(from)

let resolve_entry g name =
  let matches d =
    let qual = qualified d in
    name = modkey d ^ "." ^ d.d_name
    || name = qual
    || name = String.capitalize_ascii d.d_library ^ "." ^ qual
  in
  Array.to_list g.defs |> List.filter matches

let resolve_entries g ~add ~rule ~where ~unresolved names =
  List.concat_map
    (fun name ->
      match resolve_entry g name with
      | [] ->
          add (Finding.emit rule ~where (unresolved name));
          []
      | ds -> ds)
    names
