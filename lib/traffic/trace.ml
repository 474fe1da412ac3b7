type t = { start : float; interval : float; tms : Matrix.t array }

let make ?(start = 0.0) ~interval tms =
  if Array.length tms = 0 then invalid_arg "Trace.make: empty";
  if interval <= 0.0 then invalid_arg "Trace.make: interval";
  { start; interval; tms }

let length t = Array.length t.tms
let at t i = t.tms.(i)
let time_of t i = t.start +. (float_of_int i *. t.interval)

let iter t ~f = Array.iteri (fun i tm -> f i (time_of t i) tm) t.tms

let peak t =
  let n = Matrix.size t.tms.(0) in
  let acc = Matrix.create n in
  Array.iter
    (fun tm ->
      Matrix.iter_flows tm ~f:(fun o d v -> if v > Matrix.get acc o d then Matrix.set acc o d v))
    t.tms;
  acc

let mean_total t =
  Array.fold_left (fun acc tm -> acc +. Matrix.total tm) 0.0 t.tms /. float_of_int (length t)
