(* Odoc stand-in (DESIGN.md §6): validate doc-comment structure without
   rendering. Three rules, all errors — @analyze gates the build, so a
   finding here is a broken doc contract, not a style nit. *)

let raise_malformed =
  Finding.rule "raise-malformed" "@raise is not followed by a capitalized exception name"

let unknown_tag =
  Finding.rule "doc-unknown-tag" "doc comment uses a tag odoc does not know, e.g. @raises"

let unterminated =
  Finding.rule "doc-unterminated" "doc comment opened with (** but never closed"

let rules = [ raise_malformed; unknown_tag; unterminated ]

(* The block tags odoc 2.x accepts. Anything else at the start of a doc
   line is a typo that odoc would either reject or render as prose. *)
let known_tag = function
  | "author" | "deprecated" | "param" | "raise" | "return" | "see" | "since" | "before"
  | "version" | "canonical" | "inline" | "open" | "closed" | "hidden" ->
      true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* Check one doc-comment body. [start_line] is the line of the opening
   "(**"; body lines keep their newlines so offsets stay honest. *)
let check_body ~start_line body add =
  List.iteri
    (fun off line ->
      let lnum = start_line + off in
      let n = String.length line in
      let i = ref 0 in
      while !i < n && (line.[!i] = ' ' || line.[!i] = '\t' || line.[!i] = '*') do
        incr i
      done;
      if !i < n && line.[!i] = '@' then begin
        let t0 = !i + 1 in
        let j = ref t0 in
        while !j < n && line.[!j] >= 'a' && line.[!j] <= 'z' do
          incr j
        done;
        let tag = String.sub line t0 (!j - t0) in
        if tag = "raise" then begin
          let k = ref !j in
          while !k < n && (line.[!k] = ' ' || line.[!k] = '\t') do
            incr k
          done;
          let w0 = !k in
          while !k < n && is_ident_char line.[!k] do
            incr k
          done;
          (* A capitalized, possibly module-qualified exception name:
             [Invalid_argument], [Unix.Unix_error]. *)
          let exn = String.sub line w0 (!k - w0) in
          if not (Srclint.is_upper exn) then
            add ~line:lnum raise_malformed
              (Printf.sprintf "@raise must name a capitalized exception, got %S" exn)
        end
        else if tag <> "" && not (known_tag tag) then
          add ~line:lnum unknown_tag (Printf.sprintf "unknown doc tag @%s" tag)
      end)
    (String.split_on_char '\n' body)

let check ~file (lexed : Srclint.lexed) =
  let findings = ref [] in
  let add ~line rule msg =
    findings := Finding.emit rule ~where:(Printf.sprintf "%s:%d" file line) msg :: !findings
  in
  List.iter
    (fun (c : Srclint.comment) ->
      if c.c_doc then begin
        check_body ~start_line:c.c_line c.c_text add;
        if not c.c_closed then add ~line:c.c_line unterminated "doc comment is never closed"
      end)
    lexed.comments;
  List.rev !findings
