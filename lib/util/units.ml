(* The phantom parameter never occurs on the right-hand side: all dimensions
   share one runtime representation (an unboxed float), so the unit layer is
   free at run time. The .mli makes [q] private, which is what turns a
   watts/bps mix-up into a compile error. *)

type watts
type bps
type ratio
type seconds
type joules

type +'dim q = float

let check name x =
  if Float.is_nan x then invalid_arg ("Units." ^ name ^ ": NaN is not a quantity");
  x

let watts x = check "watts" x
let bps x = check "bps" x
let ratio x = check "ratio" x
let seconds x = check "seconds" x
let unsafe x = x

let kilo = 1e3
let mega = 1e6
let giga = 1e9

let mbps x = check "mbps" (x *. mega)
let gbps x = check "gbps" (x *. giga)

let to_float x = x
let percent r = 100.0 *. r

let zero = 0.0

let ( +: ) a b = a +. b
let ( *: ) r x = r *. x

let ( /: ) a b =
  if b = 0.0 then invalid_arg "Units./: : zero divisor would mint a NaN/inf ratio";
  a /. b

let div_opt a b = if b = 0.0 then None else Some (a /. b)

let ( *@ ) w s = w *. s

let scale f x = check "scale" (f *. x)

let compare_q a b = Float.compare a b
let min_q a b = if Float.compare a b <= 0 then a else b
