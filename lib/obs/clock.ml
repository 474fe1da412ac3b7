let source = Atomic.make Unix.gettimeofday

(* Highest time seen so far: a source stepping backwards must not make a
   span duration negative. Maintained with a CAS loop so concurrent reads
   from worker domains only ever move the floor forwards. *)
let floor_s = Atomic.make neg_infinity

let set_source f =
  Atomic.set source f;
  Atomic.set floor_s neg_infinity

let rec bump_floor t =
  let cur = Atomic.get floor_s in
  if t <= cur then cur
  else if Atomic.compare_and_set floor_s cur t then t
  else bump_floor t

let now_s () = bump_floor (Atomic.get source ())
