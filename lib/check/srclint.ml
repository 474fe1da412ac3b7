let poly_compare =
  Finding.rule "poly-compare"
    "bare polymorphic compare/Stdlib.compare; unsafe on float-carrying tuples or records"

let obj_magic = Finding.rule "obj-magic" "Obj.magic defeats the type system"
let hashtbl_find = Finding.rule "hashtbl-find" "bare Hashtbl.find raises an anonymous Not_found"
let catchall_try = Finding.rule "catchall-try" "try ... with _ -> swallows every exception"
let list_nth = Finding.rule "list-nth" "List.nth is O(n) per access; quadratic inside loops"
let rules = [ poly_compare; obj_magic; hashtbl_find; catchall_try; list_nth ]

(* ------------------------------------------------------------------ *)
(* Pass 1: blank out comments, strings, and char literals (preserving
   newlines and byte offsets) and record every comment.               *)
(* ------------------------------------------------------------------ *)

let is_lower_char c = c >= 'a' && c <= 'z'

type comment = {
  c_line : int;
  c_end : int;
  c_text : string;
  c_doc : bool;
  c_own_line : bool;
  c_closed : bool;
}

let erase source =
  let n = String.length source in
  let out = Bytes.of_string source in
  let comments = ref [] in
  let line = ref 1 in
  let line_has_code = ref false in
  let i = ref 0 in
  let blank () = if Bytes.get out !i <> '\n' then Bytes.set out !i ' ' in
  let step () =
    if !i < n then begin
      if source.[!i] = '\n' then begin
        incr line;
        line_has_code := false
      end;
      incr i
    end
  in
  let blank_step () =
    blank ();
    step ()
  in
  (* Consume a string literal body starting after the opening quote. *)
  let skip_string_body add_char =
    let closed = ref false in
    while (not !closed) && !i < n do
      if source.[!i] = '\\' && !i + 1 < n then begin
        add_char source.[!i];
        blank_step ();
        add_char source.[!i];
        blank_step ()
      end
      else begin
        if source.[!i] = '"' then closed := true;
        add_char source.[!i];
        blank_step ()
      end
    done
  in
  (* One comment-text buffer for the whole pass, cleared per comment. *)
  let buf = Buffer.create 256 in
  while !i < n do
    let c = source.[!i] in
    if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
      let start_line = !line in
      let own_line = not !line_has_code in
      (* Exactly "(**": "(***" opens a plain comment. *)
      let doc = !i + 2 < n && source.[!i + 2] = '*' && not (!i + 3 < n && source.[!i + 3] = '*') in
      Buffer.clear buf;
      blank_step ();
      blank_step ();
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if source.[!i] = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string buf "(*";
          blank_step ();
          blank_step ()
        end
        else if source.[!i] = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          blank_step ();
          blank_step ()
        end
        else if source.[!i] = '"' then begin
          (* A string inside a comment hides comment terminators. *)
          Buffer.add_char buf '"';
          blank_step ();
          skip_string_body (Buffer.add_char buf)
        end
        else begin
          Buffer.add_char buf source.[!i];
          blank_step ()
        end
      done;
      comments :=
        {
          c_line = start_line;
          c_end = !line;
          c_text = Buffer.contents buf;
          c_doc = doc;
          c_own_line = own_line;
          c_closed = !depth = 0;
        }
        :: !comments
    end
    else if c = '"' then begin
      line_has_code := true;
      blank_step ();
      skip_string_body (fun _ -> ())
    end
    else if
      c = '{' && !i + 1 < n
      && (source.[!i + 1] = '|' || is_lower_char source.[!i + 1] || source.[!i + 1] = '_')
    then begin
      (* Possible quoted string {id|...|id}; the delimiter id is lowercase
         letters and underscores (so [{_|...|_}] is legal too). *)
      let j = ref (!i + 1) in
      while !j < n && (is_lower_char source.[!j] || source.[!j] = '_') do
        incr j
      done;
      if !j < n && source.[!j] = '|' then begin
        let id = String.sub source (!i + 1) (!j - !i - 1) in
        let terminator = "|" ^ id ^ "}" in
        let tlen = String.length terminator in
        line_has_code := true;
        (* Blank until the terminator (inclusive) or end of input. *)
        let finished = ref false in
        while (not !finished) && !i < n do
          if !i + tlen <= n && String.sub source !i tlen = terminator then begin
            for _ = 1 to tlen do
              blank_step ()
            done;
            finished := true
          end
          else blank_step ()
        done
      end
      else begin
        line_has_code := true;
        step ()
      end
    end
    else if c = '\'' then begin
      line_has_code := true;
      if !i + 1 < n && source.[!i + 1] = '\\' then begin
        (* Escaped char literal: '\n', '\\', '\123', '\xFF'. The character
           after the backslash is consumed unconditionally so that '\'' does
           not mistake its escaped quote for the terminator. *)
        blank_step ();
        blank_step ();
        if !i < n then blank_step ();
        while !i < n && source.[!i] <> '\'' do
          blank_step ()
        done;
        if !i < n then blank_step ()
      end
      else if !i + 2 < n && source.[!i + 2] = '\'' && source.[!i + 1] <> '\n' then begin
        blank_step ();
        blank_step ();
        blank_step ()
      end
      else step () (* type variable such as 'a, or a trailing prime *)
    end
    else begin
      if c <> ' ' && c <> '\t' && c <> '\r' && c <> '\n' then line_has_code := true;
      step ()
    end
  done;
  (Bytes.to_string out, List.rev !comments)

(* ------------------------------------------------------------------ *)
(* Pass 2: tokenize the cleaned text.                                 *)
(* ------------------------------------------------------------------ *)

type tok = { t : string; tline : int; tcol : int }

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'
let is_number t = t <> "" && is_digit t.[0]

let is_number_char c =
  is_digit c || c = '.' || c = '_'
  || (c >= 'a' && c <= 'f')
  || (c >= 'A' && c <= 'F')
  || c = 'x' || c = 'o' || c = 'b' || c = 'e' || c = 'E'

let table names =
  let tbl = Hashtbl.create (2 * List.length names) in
  List.iter (fun name -> Hashtbl.replace tbl name ()) names;
  tbl

let multi_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> Hashtbl.replace tbl key (v :: l)
  | None -> Hashtbl.add tbl key [ v ]

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let is_lower s = s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* Two-character operators kept as single tokens; a table so the per-character
   scan loop does constant-time membership tests. *)
let two_char_ops =
  table
    [ "->"; "<-"; "/."; "*."; "+."; "-."; "<="; ">="; "<>"; "**"; ":="; "::"; "|>"; "||"; "&&";
      "@@"; "=="; "!=" ]

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_id_start c then begin
      let start = !i in
      let col = start - !bol + 1 in
      incr i;
      while !i < n && is_id_char text.[!i] do
        incr i
      done;
      (* Join dotted paths (Hashtbl.find, a.field) into one token. *)
      let continue = ref true in
      while !continue do
        if !i + 1 < n && text.[!i] = '.' && is_id_start text.[!i + 1] then begin
          incr i;
          while !i < n && is_id_char text.[!i] do
            incr i
          done
        end
        else continue := false
      done;
      toks := { t = String.sub text start (!i - start); tline = !line; tcol = col } :: !toks
    end
    else if is_digit c then begin
      let start = !i in
      let col = start - !bol + 1 in
      incr i;
      while
        !i < n
        && (is_number_char text.[!i]
           || (* exponent sign: 1e-9, 2.5E+9 *)
           ((text.[!i] = '+' || text.[!i] = '-')
           && (text.[!i - 1] = 'e' || text.[!i - 1] = 'E')
           && !i + 1 < n
           && is_digit text.[!i + 1]))
      do
        incr i
      done;
      (* int-literal width suffixes: 32l, 64L, 1n *)
      if !i < n && (text.[!i] = 'l' || text.[!i] = 'L' || text.[!i] = 'n') then incr i;
      toks := { t = String.sub text start (!i - start); tline = !line; tcol = col } :: !toks
    end
    else if c = '[' && !i + 1 < n && text.[!i + 1] = '@' then begin
      (* Attribute or floating attribute: [@inline], [@@deriving ...],
         [@@@warning "-32"]. Emitted as a single token carrying just the
         attribute name ("[@inline]"); the payload is consumed (tracking
         nested brackets) and dropped, so attributed bindings like
         [let[@inline] f x = ...] keep their [let]/name adjacency for the
         definition scanners downstream. *)
      let col = !i - !bol + 1 in
      let ln = !line in
      i := !i + 1;
      while !i < n && text.[!i] = '@' do
        incr i
      done;
      while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do
        incr i
      done;
      let id_start = !i in
      while !i < n && (is_id_char text.[!i] || text.[!i] = '.') do
        incr i
      done;
      let name = String.sub text id_start (!i - id_start) in
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        let ch = text.[!i] in
        incr i;
        match ch with
        | '[' -> incr depth
        | ']' -> decr depth
        | '\n' ->
            incr line;
            bol := !i
        | _ -> ()
      done;
      toks := { t = "[@" ^ name ^ "]"; tline = ln; tcol = col } :: !toks
    end
    else if !i + 1 < n && Hashtbl.mem two_char_ops (String.sub text !i 2) then begin
      toks := { t = String.sub text !i 2; tline = !line; tcol = !i - !bol + 1 } :: !toks;
      i := !i + 2
    end
    else begin
      toks := { t = String.make 1 c; tline = !line; tcol = !i - !bol + 1 } :: !toks;
      incr i
    end
  done;
  Array.of_list (List.rev !toks)

type lexed = { toks : tok array; comments : comment list }

let clean source =
  let text, comments = erase source in
  { toks = tokenize text; comments }

(* ------------------------------------------------------------------ *)
(* Pass 3: the rule engine.                                           *)
(* ------------------------------------------------------------------ *)

type raw = { rule : Finding.rule; rline : int; rcol : int; msg : string }

(* Keywords after which a bare [compare] token is a definition or a label,
   not a use of the polymorphic primitive. *)
let compare_definers = table [ "let"; "and"; "rec"; "val"; "external"; "method"; "~"; "?" ]

let scan_tokens toks =
  let out = ref [] in
  let add rule rline rcol msg = out := { rule; rline; rcol; msg } :: !out in
  let ntoks = Array.length toks in
  (* try/match frames carry the brace depth at which they opened, so that a
     record-update [{ e with ... }] (always directly inside braces opened
     after the keyword) does not consume the frame. *)
  let frames = ref [] in
  let brace = ref 0 in
  Array.iteri
    (fun idx tk ->
      match tk.t with
      | "Obj.magic" ->
          add obj_magic tk.tline tk.tcol "Obj.magic defeats the type system; restructure instead"
      | "List.nth" ->
          add list_nth tk.tline tk.tcol
            "List.nth is O(n) per access; use an array, pattern matching, or explicit recursion"
      | "Hashtbl.find" ->
          add hashtbl_find tk.tline tk.tcol
            "bare Hashtbl.find raises an anonymous Not_found; use find_opt or raise a descriptive \
             error naming the missing key"
      | "compare" | "Stdlib.compare" ->
          let prev = if idx > 0 then toks.(idx - 1).t else "" in
          if not (Hashtbl.mem compare_definers prev) then
            add poly_compare tk.tline tk.tcol
              "polymorphic compare mis-orders NaN and is megamorphic; use an explicit comparator \
               (Float.compare, Int.compare, a tuple comparator, ...)"
      | "{" -> incr brace
      | "}" -> brace := max 0 (!brace - 1)
      | "try" -> frames := (`Try, !brace) :: !frames
      | "match" -> frames := (`Match, !brace) :: !frames
      | "with" -> (
          match !frames with
          | (kind, d) :: rest when d = !brace ->
              frames := rest;
              if kind = `Try then begin
                let j = ref (idx + 1) in
                while !j < ntoks && toks.(!j).t = "|" do
                  incr j
                done;
                if
                  !j + 1 < ntoks
                  && toks.(!j).t = "_"
                  && (toks.(!j + 1).t = "->" || toks.(!j + 1).t = "when")
                then
                  add catchall_try toks.(!j).tline toks.(!j).tcol
                    "catch-all exception handler swallows every failure (including Out_of_memory \
                     and Assert_failure); match the specific exceptions instead"
              end
          | _ -> () (* record-with, module-type-with, or stray *))
      | _ -> ())
    toks;
  List.rev !out

let is_rule_char c = is_lower_char c || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* A pragma comment reads "lint: allow <rule> <rule> ...". *)
let parse_pragma text =
  let words =
    String.map (fun c -> if c = '\n' || c = '\t' || c = ',' then ' ' else c) text
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "")
  in
  let rec scan = function
    | "lint:" :: "allow" :: rest ->
        let rec take acc = function
          | w :: r when w <> "" && String.for_all is_rule_char w -> take (w :: acc) r
          | _ -> List.rev acc
        in
        take [] rest
    | _ :: rest -> scan rest
    | [] -> []
  in
  scan words

(* A pragma comment covers every line it spans; one on its own line also
   covers the next. *)
let allows r (c, rs) =
  let last = if c.c_own_line then c.c_end + 1 else c.c_end in
  c.c_line <= r.rline && r.rline <= last && (List.mem r.rule.Finding.id rs || List.mem "all" rs)

let findings_of_scan ~file scan lexed =
  match scan lexed.toks with
  | [] -> []
  | raws ->
      let pragmas =
        List.filter_map
          (fun c -> match parse_pragma c.c_text with [] -> None | rs -> Some (c, rs))
          lexed.comments
      in
      List.filter_map
        (fun r ->
          if List.exists (allows r) pragmas then None
          else
            Some (Finding.emit r.rule ~where:(Printf.sprintf "%s:%d:%d" file r.rline r.rcol) r.msg))
        raws

let lint ~file lexed = findings_of_scan ~file scan_tokens lexed

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
