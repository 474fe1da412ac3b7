type t = { link_on : bool array; active_degree : int array; mutable n_links_on : int }

let make g value =
  let nlinks = Graph.link_count g in
  let link_on = Array.make nlinks value in
  let active_degree = Array.make (Graph.node_count g) 0 in
  if value then
    for l = 0 to nlinks - 1 do
      let i, j = Graph.link_endpoints g l in
      active_degree.(i) <- active_degree.(i) + 1;
      active_degree.(j) <- active_degree.(j) + 1
    done;
  { link_on; active_degree; n_links_on = (if value then nlinks else 0) }

let all_on g = make g true
let all_off g = make g false

let copy t =
  {
    link_on = Array.copy t.link_on;
    active_degree = Array.copy t.active_degree;
    n_links_on = t.n_links_on;
  }

let set_link g t l on =
  if t.link_on.(l) <> on then begin
    t.link_on.(l) <- on;
    let i, j = Graph.link_endpoints g l in
    let d = if on then 1 else -1 in
    t.active_degree.(i) <- t.active_degree.(i) + d;
    t.active_degree.(j) <- t.active_degree.(j) + d;
    t.n_links_on <- t.n_links_on + d
  end

let link_on t l = t.link_on.(l)
let link_mask t = t.link_on
let arc_on g t a = t.link_on.((Graph.arc g a).link)
let node_on t n = t.active_degree.(n) > 0
let active_links t = t.n_links_on

let active_nodes t =
  Array.fold_left (fun acc d -> if d > 0 then acc + 1 else acc) 0 t.active_degree

let equal a b = a.link_on = b.link_on

let key t =
  let n = Array.length t.link_on in
  let bytes = Bytes.make ((n + 7) / 8) '\000' in
  for l = 0 to n - 1 do
    if t.link_on.(l) then begin
      let byte = l / 8 and bit = l mod 8 in
      Bytes.set bytes byte (Char.chr (Char.code (Bytes.get bytes byte) lor (1 lsl bit)))
    end
  done;
  Bytes.to_string bytes

let pp g ppf t =
  Format.fprintf ppf "state(%d/%d links on, %d/%d nodes on)" t.n_links_on (Graph.link_count g)
    (active_nodes t) (Graph.node_count g)
