(* Bounded LRU cache: a hashtable from key to an intrusive doubly-linked
   node; the list keeps recency order, front = most recent. Every public
   operation holds the mutex, except the user computation in find_or_add
   (see memo.mli for the locking contract). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable front : ('k, 'v) node option;
  mutable back : ('k, 'v) node option;
  lock : Mutex.t;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Memo.create: capacity >= 1";
  {
    cap = capacity;
    tbl = Hashtbl.create (min capacity 64);
    front = None;
    back = None;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* List surgery; all callers hold the lock. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.front <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.back <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.front;
  (match t.front with Some f -> f.prev <- Some n | None -> t.back <- Some n);
  t.front <- Some n

let touch t n =
  match t.front with
  | Some f when f == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let evict_over_capacity t =
  while Hashtbl.length t.tbl > t.cap do
    match t.back with
    | None -> assert false (* length > cap >= 1 implies a back node *)
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.key
  done

let insert t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      (* Lost a race with another domain computing the same key: keep one
         entry, refresh its value and recency. *)
      n.value <- v;
      touch t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      evict_over_capacity t

let find_or_add t k ~compute =
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | Some n ->
            touch t n;
            Some n.value
        | None -> None)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = compute k in
      locked t (fun () -> insert t k v);
      v

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.front <- None;
      t.back <- None)
