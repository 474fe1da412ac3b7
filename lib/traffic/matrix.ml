(* Demands are stored densely for small networks (O(1) everything, cache
   friendly) and sparsely above [dense_limit] nodes: a k=12 fat-tree has 648
   nodes, so a dense matrix would cost 648^2 floats (~3.3 MB) per trace
   interval even when only a few hundred flows exist. The representation is
   invisible to callers; iteration order is (origin, destination) in both. *)

let dense_limit = 128

type rep = Dense of float array | Sparse of (int, float) Hashtbl.t

type t = { n : int; rep : rep }

let create n =
  if n <= dense_limit then { n; rep = Dense (Array.make (n * n) 0.0) }
  else { n; rep = Sparse (Hashtbl.create 64) }

let size t = t.n

let get t o d =
  match t.rep with
  | Dense a -> a.((o * t.n) + d)
  | Sparse h -> Option.value (Hashtbl.find_opt h ((o * t.n) + d)) ~default:0.0

let set t o d v =
  if o = d && v <> 0.0 then invalid_arg "Matrix.set: diagonal demand";
  match t.rep with
  | Dense a -> a.((o * t.n) + d) <- v
  | Sparse h ->
      let key = (o * t.n) + d in
      if v = 0.0 then Hashtbl.remove h key else Hashtbl.replace h key v

let add_to t o d v = set t o d (get t o d +. v)

let copy t =
  {
    n = t.n;
    rep =
      (match t.rep with Dense a -> Dense (Array.copy a) | Sparse h -> Sparse (Hashtbl.copy h));
  }

(* Sparse entries in ascending key order: float folds over them must not
   depend on hash iteration order (sums reassociate). *)
let sorted_entries h =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort (Eutil.Order.by fst Int.compare)

let fold_values t ~init ~f =
  match t.rep with
  | Dense a -> Array.fold_left f init a
  | Sparse h -> List.fold_left (fun acc (_, v) -> f acc v) init (sorted_entries h)

let scale t factor =
  match t.rep with
  | Dense a -> { n = t.n; rep = Dense (Array.map (fun x -> x *. factor) a) }
  | Sparse h ->
      let h' = Hashtbl.create (Hashtbl.length h) in
      List.iter
        (fun (k, v) -> if v *. factor <> 0.0 then Hashtbl.replace h' k (v *. factor))
        (sorted_entries h);
      { n = t.n; rep = Sparse h' }

let total t = fold_values t ~init:0.0 ~f:( +. )

let iter_flows t ~f =
  match t.rep with
  | Dense a ->
      for o = 0 to t.n - 1 do
        for d = 0 to t.n - 1 do
          let v = a.((o * t.n) + d) in
          if v > 0.0 then f o d v
        done
      done
  | Sparse h ->
      (* Deterministic (origin, destination) order. *)
      List.iter
        (fun (k, v) -> if v > 0.0 then f (k / t.n) (k mod t.n) v)
        (sorted_entries h)

let fold_flows t ~init ~f =
  let acc = ref init in
  iter_flows t ~f:(fun o d v -> acc := f !acc o d v);
  !acc

let flows t = fold_flows t ~init:[] ~f:(fun acc o d v -> (o, d, v) :: acc) |> List.rev

let flows_desc t =
  flows t
  |> List.sort
       (Eutil.Order.by
          (fun (o, d, v) -> (v, o, d))
          (Eutil.Order.triple (Eutil.Order.desc Float.compare) Int.compare Int.compare))

let of_flows n l =
  let t = create n in
  List.iter (fun (o, d, v) -> add_to t o d v) l;
  t

let uniform n ~pairs ~demand = of_flows n (List.map (fun (o, d) -> (o, d, demand)) pairs)

let pairs t = fold_flows t ~init:[] ~f:(fun acc o d _ -> (o, d) :: acc) |> List.rev

let signature t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.n);
  iter_flows t ~f:(fun o d v -> Buffer.add_string b (Printf.sprintf "|%d,%d:%h" o d v));
  Digest.to_hex (Digest.string (Buffer.contents b))
