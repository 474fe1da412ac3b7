(* The analyze manifest: one JSON object with a section per pass. The
   parser reads the flat subset the file uses (objects, arrays of strings,
   non-negative integers; commas are optional) and is total: every
   malformed input, including an integer past max_int, is an [Error]. *)

type t = {
  budget : (string * int) list;
  parallel : (string * string list) list;
  cost : (string * string list) list;
  locks : (string * string list) list;
}

type error = { offset : int; reason : string }

let path = "check/analyze.json"
let empty = { budget = []; parallel = []; cost = []; locks = [] }
let error_to_string e = Printf.sprintf "byte %d: %s" e.offset e.reason

exception Malformed of error

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail reason = raise_notrace (Malformed { offset = !i; reason }) in
  let skip () =
    while !i < n && match s.[!i] with ' ' | '\n' | '\t' | '\r' | ',' -> true | _ -> false do
      incr i
    done
  in
  let at c =
    skip ();
    !i < n && s.[!i] = c
  in
  let expect c = if at c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let string () =
    expect '"';
    let start = !i in
    while !i < n && s.[!i] <> '"' do
      incr i
    done;
    if !i >= n then fail "unterminated string";
    incr i;
    String.sub s start (!i - 1 - start)
  in
  let int () =
    skip ();
    let start = !i in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      incr i
    done;
    match int_of_string_opt (String.sub s start (!i - start)) with
    | Some v -> v
    | None -> fail "expected a non-negative integer in range"
  in
  let rec items close item acc =
    if at close then (incr i; List.rev acc) else items close item (item () :: acc)
  in
  let names () = expect '['; items ']' string [] in
  let obj value =
    expect '{';
    items '}' (fun () -> let key = string () in expect ':'; (key, value key)) []
  in
  let m = ref empty in
  let section = function
    | "budget" -> m := { !m with budget = obj (fun _ -> int ()) }
    | "parallel" -> m := { !m with parallel = obj (fun _ -> names ()) }
    | "cost" -> m := { !m with cost = obj (fun _ -> names ()) }
    | "locks" -> m := { !m with locks = obj (fun _ -> names ()) }
    | key -> fail (Printf.sprintf "unknown section %S" key)
  in
  match
    ignore (obj section);
    skip ();
    if !i < n then fail "trailing bytes after the manifest object"
  with
  | () -> Ok !m
  | exception Malformed e -> Error e

let budget_exceeded =
  Finding.rule ~section:"budget" "budget-exceeded"
    "warn-level findings exceed the ratchet in the budget section of check/analyze.json"

let over_budget ?(where = path) ~budget findings =
  let warned =
    List.filter_map
      (fun (f : Finding.t) -> if f.Finding.severity = Finding.Warn then Some f.Finding.rule else None)
      findings
  in
  let allowed rule = Option.value (List.assoc_opt rule budget) ~default:0 in
  List.sort_uniq String.compare warned
  |> List.filter_map (fun rule ->
         let count = List.length (List.filter (String.equal rule) warned) in
         if count <= allowed rule then None
         else
           Some
             (Finding.emit budget_exceeded ~where
                (Printf.sprintf "%d %s finding(s) exceed the recorded budget of %d" count rule
                   (allowed rule))))
