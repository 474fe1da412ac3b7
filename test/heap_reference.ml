(* The binary heap as it was before it became a structure of arrays: boxed
   entries and a [Some (prio, value)] per pop. Frozen as the order oracle
   for [Eutil.Heap] and as the scheduler of the other frozen references,
   so those keep running on the old heap. Do not optimise it. *)

type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h e =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap e in
    Array.blit h.data 0 nd 0 h.len;
    h.data <- nd
  end

let push h prio value =
  let e = { prio; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h e;
  h.data.(h.len) <- e;
  h.len <- h.len + 1;
  (* sift up *)
  let i = ref (h.len - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    if less h.data.(!i) h.data.(p) then begin
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p;
      true
    end
    else false
  do
    ()
  done

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.len && less h.data.(l) h.data.(!m) then m := l;
        if r < h.len && less h.data.(r) h.data.(!m) then m := r;
        if !m = !i then continue := false
        else begin
          let tmp = h.data.(!m) in
          h.data.(!m) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !m
        end
      done
    end;
    Some (top.prio, top.value)
  end

let clear h =
  h.len <- 0;
  h.next_seq <- 0
