type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_raw t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = next_raw t in
  { state = s }

let float t =
  (* 53 high bits to a float in [0,1). *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: the bound must be positive";
  (* Rejection-free modulo is fine for our non-cryptographic needs. Keep 62
     bits so the value stays positive in OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  v mod n

let range t lo hi = lo +. ((hi -. lo) *. float t)

let gaussian t =
  let rec draw () =
    let u = float t in
    if u <= 1e-12 then draw () else u
  in
  let u1 = draw () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let exponential t ~mean =
  let rec draw () =
    let u = float t in
    if u <= 1e-12 then draw () else u
  in
  -.mean *. log (draw ())

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample: k must lie in [0, n]";
  let all = Array.init n (fun i -> i) in
  shuffle t all;
  Array.sub all 0 k
