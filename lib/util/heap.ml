(* Structure of arrays: slot i holds priority [prio.(i)], insertion number
   [seq.(i)] and value [vals.(i)]. Priorities sit in a [Float.Array], so
   neither [push] nor [take] boxes anything once the arrays have grown. The
   sifts move a hole instead of swapping, but make the comparisons the
   swapping version made, so the layout (and with it the pop order) is the
   same.

   Beside the binary heap sits the sorted run: a FIFO ring of the entries
   [push_last] appended, slot [(rhead + i) land (capacity - 1)] holding the
   i-th (the capacity is a power of two). Each was appended at a priority
   at least its predecessor's and with a larger insertion number, so the
   ring is sorted by (priority, insertion number) and its head is its
   minimum. [rlast] is the last entry's priority, [neg_infinity] while the
   ring is empty. Both structures draw insertion numbers from [next_seq],
   so no two entries tie and the smaller of the two heads is the minimum
   of all. *)
type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable rprio : Float.Array.t;
  mutable rseq : int array;
  mutable rvals : 'a array;
  mutable rhead : int;
  mutable rlen : int;
  mutable rlast : float;
}

let create () =
  {
    prio = Float.Array.create 0;
    seq = [||];
    vals = [||];
    len = 0;
    next_seq = 0;
    rprio = Float.Array.create 0;
    rseq = [||];
    rvals = [||];
    rhead = 0;
    rlen = 0;
    rlast = neg_infinity;
  }

let is_empty h = h.len = 0 && h.rlen = 0

(* (priority, insertion seq) order: FIFO among equal priorities. *)
let[@inline] less (p1 : float) (s1 : int) (p2 : float) (s2 : int) =
  p1 < p2 || (p1 = p2 && s1 < s2)

(* [value] only seeds the new value array. *)
let grow h value =
  let cap = Array.length h.seq in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let prio = Float.Array.create ncap in
    Float.Array.blit h.prio 0 prio 0 h.len;
    let seq = Array.make ncap 0 in
    Array.blit h.seq 0 seq 0 h.len;
    let vals = Array.make ncap value in
    Array.blit h.vals 0 vals 0 h.len;
    h.prio <- prio;
    h.seq <- seq;
    h.vals <- vals
  end

let push h p value =
  grow h value;
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let prio = h.prio and seq = h.seq and vals = h.vals in
  (* sift up: move parents down into the hole until [p] fits *)
  let i = ref h.len in
  h.len <- h.len + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    if less p s (Float.Array.get prio parent) seq.(parent) then begin
      Float.Array.set prio !i (Float.Array.get prio parent);
      seq.(!i) <- seq.(parent);
      vals.(!i) <- vals.(parent);
      i := parent;
      true
    end
    else false
  do
    ()
  done;
  Float.Array.set prio !i p;
  seq.(!i) <- s;
  vals.(!i) <- value

(* A full ring doubles, unrolled so that its head lands in slot 0. *)
let ring_grow h value =
  let cap = Array.length h.rseq in
  if h.rlen = cap then begin
    let ncap = max 16 (2 * cap) and head = h.rhead in
    let wrapped = cap - head in
    let prio = Float.Array.create ncap in
    Float.Array.blit h.rprio head prio 0 wrapped;
    Float.Array.blit h.rprio 0 prio wrapped head;
    let seq = Array.make ncap 0 in
    Array.blit h.rseq head seq 0 wrapped;
    Array.blit h.rseq 0 seq wrapped head;
    let vals = Array.make ncap value in
    Array.blit h.rvals head vals 0 wrapped;
    Array.blit h.rvals 0 vals wrapped head;
    h.rprio <- prio;
    h.rseq <- seq;
    h.rvals <- vals;
    h.rhead <- 0
  end

(* [p >= rlast] is false for a NaN, which therefore takes the heap path. *)
let push_last h p value =
  if p >= h.rlast then begin
    ring_grow h value;
    let i = (h.rhead + h.rlen) land (Array.length h.rseq - 1) in
    Float.Array.set h.rprio i p;
    h.rseq.(i) <- h.next_seq;
    h.rvals.(i) <- value;
    h.next_seq <- h.next_seq + 1;
    h.rlen <- h.rlen + 1;
    h.rlast <- p
  end
  else push h p value

(* Removes slot 0: the last slot fills the hole and sifts down. *)
let remove_min h =
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    let prio = h.prio and seq = h.seq and vals = h.vals in
    let p = Float.Array.get prio n and s = seq.(n) and value = vals.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      (* [m] is the smallest of the hole's entry and its children; -1 is the
         entry itself *)
      let m = ref (-1) in
      if l < n && less (Float.Array.get prio l) seq.(l) p s then m := l;
      if r < n then begin
        let beats =
          if !m < 0 then less (Float.Array.get prio r) seq.(r) p s
          else less (Float.Array.get prio r) seq.(r) (Float.Array.get prio l) seq.(l)
        in
        if beats then m := r
      end;
      if !m < 0 then continue := false
      else begin
        let c = !m in
        Float.Array.set prio !i (Float.Array.get prio c);
        seq.(!i) <- seq.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
    done;
    Float.Array.set prio !i p;
    seq.(!i) <- s;
    vals.(!i) <- value
  end

(* Does the next removal take the ring's head rather than the heap's? *)
let[@inline] ring_first h =
  h.rlen > 0
  && (h.len = 0
     || less (Float.Array.get h.rprio h.rhead) h.rseq.(h.rhead) (Float.Array.get h.prio 0) h.seq.(0)
     )

let ring_remove h =
  h.rhead <- (h.rhead + 1) land (Array.length h.rseq - 1);
  h.rlen <- h.rlen - 1;
  if h.rlen = 0 then h.rlast <- neg_infinity

let min_priority h =
  if ring_first h then Float.Array.get h.rprio h.rhead
  else if h.len = 0 then invalid_arg "Heap.min_priority: empty heap"
  else Float.Array.get h.prio 0

let take h =
  if ring_first h then begin
    let top = h.rvals.(h.rhead) in
    ring_remove h;
    top
  end
  else begin
    if h.len = 0 then invalid_arg "Heap.take: empty heap";
    let top = h.vals.(0) in
    remove_min h;
    top
  end

let pop h =
  if ring_first h then begin
    let p = Float.Array.get h.rprio h.rhead and top = h.rvals.(h.rhead) in
    ring_remove h;
    Some (p, top)
  end
  else if h.len = 0 then None
  else begin
    let p = Float.Array.get h.prio 0 and top = h.vals.(0) in
    remove_min h;
    Some (p, top)
  end
