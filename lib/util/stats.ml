let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

type boxplot = {
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

let boxplot xs =
  {
    min = percentile xs 0.0;
    q1 = percentile xs 25.0;
    median = percentile xs 50.0;
    q3 = percentile xs 75.0;
    max = percentile xs 100.0;
  }

let ccdf xs points =
  let n = float_of_int (Array.length xs) in
  List.map
    (fun thr ->
      let c = Array.fold_left (fun acc x -> if x >= thr then acc + 1 else acc) 0 xs in
      (thr, if n = 0.0 then 0.0 else 100.0 *. float_of_int c /. n))
    points

let pp_boxplot ppf b =
  Format.fprintf ppf "min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f" b.min b.q1 b.median b.q3 b.max
