type matcher = { src : int option; dst : int option }

type action = Drop | Forward of (int * float) list

type entry = {
  priority : int;
  matcher : matcher;
  action : action;
  mutable packets : int;
  mutable bytes : float;
}

type t = { mutable table : entry list (* sorted: highest priority first *) }

let create () = { table = [] }

let add t ~priority ~matcher ~action =
  let e = { priority; matcher; action; packets = 0; bytes = 0.0 } in
  (* Stable insert: after existing entries of >= priority. *)
  let rec insert = function
    | [] -> [ e ]
    | x :: rest -> if x.priority >= priority then x :: insert rest else e :: x :: rest
  in
  t.table <- insert t.table

let matches m ~src ~dst =
  (match m.src with None -> true | Some s -> s = src)
  && match m.dst with None -> true | Some d -> d = dst

let lookup t ~src ~dst = List.find_opt (fun e -> matches e.matcher ~src ~dst) t.table

let account e ~bytes =
  e.packets <- e.packets + 1;
  e.bytes <- e.bytes +. bytes

let size t = List.length t.table

let select e ~key =
  match e.action with
  | Drop -> None
  | Forward [] -> None
  | Forward buckets ->
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 buckets in
      if total <= 0.0 then None
      else begin
        (* Hash the key into [0, total) deterministically, then walk the
           buckets — the fixed-point arithmetic keeps proportions exact in
           the long run for integer key streams. *)
        let h = (key * 2654435761) land 0xFFFFFF in
        let x = float_of_int h /. 16777216.0 *. total in
        let rec pick acc = function
          | [] -> None
          | (arc, w) :: rest -> if acc +. w > x then Some arc else pick (acc +. w) rest
        in
        pick 0.0 buckets
      end
