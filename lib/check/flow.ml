(* Intraprocedural numeric-safety dataflow over Srclint token streams.

   One forward pass per file. Function boundaries are toplevel [let]/[and]
   (column 1); within a function we track a single dataflow fact per
   identifier — NonZero — in a two-point lattice {Top, NonZero}. Facts are
   born at comparisons against numeric literals (a guard that mentions zero
   means the zero case was handled; a bound against a positive constant
   implies nonzero) and at bindings to nonzero constants or [max <pos>].
   The pass is deliberately flow-loose: a fact, once established, holds for
   the remainder of the function. That is unsound in the branch where the
   guard failed, but every such branch in practice returns or raises before
   dividing, and the looseness is what keeps the analysis a single linear
   scan with near-zero false positives (see DESIGN.md section 7). *)

module S = Srclint

let div_unguarded =
  Finding.rule "div-unguarded"
    "float division whose divisor is not provably nonzero via a dominating guard, a nonzero \
     binding, or max <positive>"

let nan_compare =
  Finding.rule "nan-compare" "comparison that mishandles NaN: a [nan] operand, or the x <> x idiom"

let magic_unit =
  Finding.rule "magic-unit"
    "raw unit-carrying literal (magnitude >= 1e6) outside Eutil.Units constructors and named \
     bindings"

let unit_relabel =
  Finding.rule "unit-relabel"
    "to_float fed straight back into a Units constructor without a dimension annotation"

let rules = [ div_unguarded; nan_compare; magic_unit; unit_relabel ]

(* ------------------------------- token taxonomy ------------------------ *)

let is_ident t = S.is_lower t || S.is_upper t

let plain_ident t = is_ident t && not (String.contains t '.')

(* Constructors of Eutil.Units, matched on the last path component so that
   [U.bps], [Eutil.Units.bps], and a bare [bps] under an open all count. *)
let unit_ctors = [ "watts"; "bps"; "mbps"; "gbps"; "ratio"; "seconds"; "unsafe" ]
let is_unit_ctor t = is_ident t && List.mem (S.last_component t) unit_ctors

let number_value t =
  if S.is_number t then
    float_of_string_opt (String.concat "" (String.split_on_char '_' t))
  else None

(* Scientific notation (has an exponent, is not a hex/octal/binary int):
   the spelling people use for unit-carrying magnitudes. *)
let is_sci t =
  S.is_number t
  && (String.length t < 2
     || not (t.[0] = '0' && (match Char.lowercase_ascii t.[1] with 'x' | 'o' | 'b' -> true | _ -> false)))
  && String.exists (fun c -> c = 'e' || c = 'E') t

(* Operator classes consulted per token; tables keep the scan linear. *)
let comparison_ops = S.table [ "="; "<>"; "<"; "<="; ">"; ">="; "=="; "!=" ]
let arith_ops = S.table [ "+."; "-."; "*."; "/."; "+"; "-"; "*"; "/"; "**" ]

(* Magnitudes at or above a mega are link capacities, demand totals, power
   budgets — quantities that carry a unit. *)
let magic_floor = 1e6

(* ------------------------------- the pass ------------------------------ *)

let scan ~magic_exempt toks =
  let out = ref [] in
  let add rule (tk : S.tok) msg =
    out := { S.rule; rline = tk.S.tline; rcol = tk.S.tcol; msg } :: !out
  in
  let n = Array.length toks in
  let text i = if i >= 0 && i < n then toks.(i).S.t else "" in
  (* Per-function facts reset at every toplevel definition; facts for
     module-level constants ([let day = 86_400.0] at column 1) persist for
     the whole file. *)
  let nonzero : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let toplevel_nonzero : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let fact id = Hashtbl.replace nonzero id () in
  let known id = Hashtbl.mem nonzero id || Hashtbl.mem toplevel_nonzero id in
  let pos_lit t = match number_value t with Some v -> v > 0.0 | None -> false in
  let same_line i j = i >= 0 && j >= 0 && i < n && j < n && toks.(i).S.tline = toks.(j).S.tline in
  (* A plain identifier at [i] that is really a standalone operand: not a
     projection or array access [x.(i)], and not a function being applied.
     Application arguments must share the identifier's line — the token
     after a line break is the next construct, not an argument. *)
  let standalone_operand i =
    plain_ident (text i)
    && text (i + 1) <> "."
    && ((not (same_line i (i + 1)))
       ||
       let nxt = text (i + 1) in
       not (is_ident nxt || S.is_number nxt || nxt = "(" || nxt = "!" || nxt = "~" || nxt = "'"))
  in
  for i = 0 to n - 1 do
    let tk = toks.(i) in
    let t = tk.S.t in
    (* Function boundary: facts do not survive into the next toplevel
       definition. *)
    if (t = "let" || t = "and") && tk.S.tcol = 1 then Hashtbl.reset nonzero;
    (* --- fact generation -------------------------------------------- *)
    (if Hashtbl.mem comparison_ops t then
       if t = "=" && (text (i - 2) = "let" || text (i - 2) = "and") then begin
         let bind id =
           if i >= 2 && toks.(i - 2).S.tcol = 1 then Hashtbl.replace toplevel_nonzero id ()
           else fact id
         in
         (* let x = <lone nonzero literal> / let x = max <pos> ... *)
         (match number_value (text (i + 1)) with
         | Some v
           when v <> 0.0 && plain_ident (text (i - 1)) && not (Hashtbl.mem arith_ops (text (i + 2)))
           ->
             bind (text (i - 1))
         | _ -> ());
         if
           (text (i + 1) = "max" || text (i + 1) = "Float.max")
           && pos_lit (text (i + 2))
           && plain_ident (text (i - 1))
         then bind (text (i - 1))
       end
       else begin
         (* Any comparison of an identifier against a numeric literal:
            either the zero case is being handled, or the identifier is
            bounded away from zero. *)
         if plain_ident (text (i - 1)) && S.is_number (text (i + 1)) then fact (text (i - 1));
         if plain_ident (text (i + 1)) && S.is_number (text (i - 1)) then fact (text (i + 1))
       end);
    (* --- nan-compare ------------------------------------------------- *)
    (if Hashtbl.mem comparison_ops t then begin
       let nan_operand j = S.last_component (text j) = "nan" in
       if nan_operand (i - 1) || nan_operand (i + 1) then
         add nan_compare tk
           "comparison with nan is vacuous (IEEE 754 makes it false); use Float.is_nan"
       else if
         (* Only the disequality spellings: [let f x = x ...] makes [=]
            self-comparison shaped at every unary function definition. *)
         (t = "<>" || t = "!=")
         && plain_ident (text (i - 1))
         && text (i - 1) = text (i + 1)
         && not (same_line (i + 1) (i + 2) && (is_ident (text (i + 2)) || text (i + 2) = "("))
       then
         add nan_compare tk
           "self-comparison is a NaN probe in disguise; say Float.is_nan explicitly"
     end);
    (* --- div-unguarded ----------------------------------------------- *)
    (if t = "/." then begin
       let flag_ident who =
         if not (known who) then
           add div_unguarded tk
             (Printf.sprintf
                "divisor [%s] is not provably nonzero here; guard it, bind it via max, or use \
                 Eutil.Units.div_opt"
                who)
       in
       let d = text (i + 1) in
       if S.is_number d then begin
         match number_value d with
         | Some 0.0 -> add div_unguarded tk "division by the literal zero"
         | _ -> ()
       end
       else if d = "float_of_int" then begin
         let d2 = text (i + 2) in
         if S.is_number d2 then begin
           match number_value d2 with
           | Some 0.0 -> add div_unguarded tk "division by the literal zero"
           | _ -> ()
         end
         else if standalone_operand (i + 2) then flag_ident d2
         (* applications and dotted operands: conservatively trusted *)
       end
       else if d = "max" || d = "Float.max" then begin
         match number_value (text (i + 2)) with
         | Some v when v <= 0.0 ->
             add div_unguarded tk
               "max with a non-positive floor does not bound the divisor away from zero"
         | Some _ -> ()
         | None ->
             (* no literal floor in sight: the bound is not evident *)
             if standalone_operand (i + 2) then
               add div_unguarded tk
                 "max with a non-positive floor does not bound the divisor away from zero"
       end
       else if standalone_operand (i + 1) then flag_ident d
       (* parenthesised expressions, projections, applications, derefs:
          outside the lattice — conservatively trusted *)
     end);
    (* --- magic-unit --------------------------------------------------- *)
    (if (not magic_exempt) && is_sci t then
       match number_value t with
       | Some v when Float.abs v >= magic_floor ->
           let p1 = text (i - 1) and p2 = text (i - 2) in
           let wrapped = is_unit_ctor p1 || (p1 = "(" && is_unit_ctor p2) in
           let named_binding = p1 = "=" && is_ident p2 in
           if not (wrapped || named_binding) then
             add magic_unit tk
               (Printf.sprintf
                  "unit-carrying literal %s should pass through an Eutil.Units constructor or be \
                   bound to a named constant"
                  t)
       | _ -> ());
    (* --- unit-relabel -------------------------------------------------- *)
    if is_unit_ctor t && text (i + 1) = "(" then begin
      let depth = ref 1 in
      let j = ref (i + 2) in
      let has_to_float = ref false in
      let has_annot = ref false in
      while !depth > 0 && !j < n do
        (match text !j with
        | "(" -> incr depth
        | ")" -> decr depth
        | ":" -> has_annot := true
        | w when S.last_component w = "to_float" -> has_to_float := true
        | _ -> ());
        incr j
      done;
      if !has_to_float && not !has_annot then
        add unit_relabel tk
          "to_float stripped a dimension that this constructor silently re-assigns; annotate the \
           intermediate (e.g. (x : Eutil.Units.watts Eutil.Units.q)) or keep the quantity typed"
    end
  done;
  List.rev !out

(* ------------------------------- drivers ------------------------------- *)

let analyze ~file lexed =
  S.findings_of_scan ~file (scan ~magic_exempt:(Filename.basename file = "units.ml")) lexed
