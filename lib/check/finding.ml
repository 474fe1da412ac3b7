type severity = Error | Warn

type t = { rule : string; severity : severity; where : string; message : string }

let v ?(severity = Error) ~rule ~where message = { rule; severity; where; message }

type rule = { id : string; level : severity; section : string; doc : string }

let rule ?(level = Error) ?(section = "-") id doc = { id; level; section; doc }
let emit r ~where message = { rule = r.id; severity = r.level; where; message }

let errors fs = List.filter (fun f -> f.severity = Error) fs

let severity_to_string = function Error -> "error" | Warn -> "warning"

let pp ppf f =
  Format.fprintf ppf "%s: %s [%s]: %s" f.where (severity_to_string f.severity) f.rule f.message

let render fs = String.concat "\n" (List.map (Format.asprintf "%a" pp) fs)

(* Minimal JSON string escaping: the fields we emit only ever contain file
   paths, rule names, and human-readable messages. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json fs =
  let obj f =
    Printf.sprintf "  {\"rule\": \"%s\", \"severity\": \"%s\", \"where\": \"%s\", \"message\": \"%s\"}"
      (json_escape f.rule)
      (severity_to_string f.severity)
      (json_escape f.where) (json_escape f.message)
  in
  "[\n" ^ String.concat ",\n" (List.map obj fs) ^ "\n]\n"

(* SARIF 2.1.0, the minimal static-analysis interchange subset: one run,
   one driver, the rule table from [--list-rules], one result per
   finding. [where] is "file:line" when a token anchored the finding and
   a bare path otherwise; both map onto physicalLocation. *)
let to_sarif ~rules fs =
  let rule_json r =
    Printf.sprintf "{\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}"
      (json_escape r.id) (json_escape r.doc)
  in
  let split_where w =
    match String.rindex_opt w ':' with
    | Some i -> (
        let tail = String.sub w (i + 1) (String.length w - i - 1) in
        match int_of_string_opt tail with
        | Some line when line > 0 -> (String.sub w 0 i, line)
        | _ -> (w, 1))
    | None -> (w, 1)
  in
  let result f =
    let uri, line = split_where f.where in
    Printf.sprintf
      "{\"ruleId\": \"%s\", \"level\": \"%s\", \"message\": {\"text\": \"%s\"}, \"locations\": \
       [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": \
       {\"startLine\": %d}}}]}"
      (json_escape f.rule)
      (severity_to_string f.severity)
      (json_escape f.message) (json_escape uri) line
  in
  Printf.sprintf
    "{\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\", \"version\": \"2.1.0\", \
     \"runs\": [{\"tool\": {\"driver\": {\"name\": \"respctl\", \"informationUri\": \
     \"https://github.com/respctl\", \"rules\": [%s]}}, \"results\": [%s]}]}\n"
    (String.concat ", " (List.map rule_json rules))
    (String.concat ", " (List.map result fs))

let to_json_document passes =
  let pass (name, fs) =
    Printf.sprintf "{\"pass\": \"%s\", \"findings\": %s}" (json_escape name)
      (String.trim (to_json fs))
  in
  let all = List.concat_map snd passes in
  let errs = List.length (errors all) in
  Printf.sprintf "{\"passes\": [%s], \"errors\": %d, \"warnings\": %d}\n"
    (String.concat ", " (List.map pass passes))
    errs
    (List.length all - errs)
