type var = int

type term = float * var

type t = {
  mutable names : string list;  (* reversed *)
  mutable n : int;
  mutable integer : bool list;  (* reversed *)
  mutable rows : (term list * Simplex.relation * float) list;
  mutable obj : term list option;
}

let create () = { names = []; n = 0; integer = []; rows = []; obj = None }

let var t ?(integer = false) ?ub name =
  let v = t.n in
  t.names <- name :: t.names;
  t.integer <- integer :: t.integer;
  t.n <- t.n + 1;
  (match ub with Some u -> t.rows <- ([ (1.0, v) ], Simplex.Le, u) :: t.rows | None -> ());
  v

let binary t name = var t ~integer:true ~ub:1.0 name

let constr t terms rel rhs = t.rows <- (terms, rel, rhs) :: t.rows

let minimize t terms =
  if t.obj <> None then invalid_arg "Model.minimize: objective already set";
  t.obj <- Some terms

type solution = { x : float array; objective_value : float }

let value s v = s.x.(v)
let objective s = s.objective_value

let dense n terms =
  let row = Array.make n 0.0 in
  List.iter (fun (c, v) -> row.(v) <- row.(v) +. c) terms;
  row

let to_simplex t =
  let objective = dense t.n (Option.value t.obj ~default:[]) in
  let rows = List.rev_map (fun (terms, rel, rhs) -> (dense t.n terms, rel, rhs)) t.rows in
  { Simplex.n_vars = t.n; objective; rows }

(* Inspection hooks for the static-analysis layer (Check.Invariant). *)
let var_names t = Array.of_list (List.rev t.names)
let constraints t = List.rev t.rows
let objective_terms t = t.obj
let var_index (v : var) = v

let solve ?max_nodes t =
  let lp = to_simplex t in
  let integer = Array.of_list (List.rev t.integer) in
  if Array.exists (fun b -> b) integer then begin
    match Milp.solve ?max_nodes { Milp.lp; integer } with
    | Milp.Optimal { x; objective } -> `Optimal { x; objective_value = objective }
    | Milp.Infeasible -> `Infeasible
    | Milp.Unbounded -> `Unbounded
    | Milp.Node_limit -> `Node_limit
  end
  else begin
    match Simplex.solve lp with
    | Simplex.Optimal { x; objective } -> `Optimal { x; objective_value = objective }
    | Simplex.Infeasible -> `Infeasible
    | Simplex.Unbounded -> `Unbounded
  end
