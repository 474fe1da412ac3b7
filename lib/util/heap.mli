(** Binary min-heap keyed by float priorities.

    Used by the discrete-event simulators' schedulers (the flow simulator
    and the packet simulator). The heap keeps priorities, insertion numbers
    and values in parallel arrays (priorities unboxed), so {!push} and
    {!take} allocate nothing once the arrays have grown to the largest size
    seen. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val min_priority : 'a t -> float
(** The priority of the element {!take} would remove next, without
    removing it.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. Ties are broken by
    insertion order (FIFO), which keeps the event simulator deterministic. *)

val take : 'a t -> 'a
(** Removes the element {!pop} would return and returns its value only,
    without the option and the tuple [pop] allocates. Same order: priority,
    then FIFO among equal priorities.
    @raise Invalid_argument on an empty heap. *)
