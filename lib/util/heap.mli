(** Binary min-heap keyed by float priorities.

    Used by Dijkstra and by the discrete-event simulator's scheduler. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. Ties are broken by
    insertion order (FIFO), which keeps the event simulator deterministic. *)

val clear : 'a t -> unit
(** Empties the heap, keeping its storage for reuse. *)
