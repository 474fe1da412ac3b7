(** Binary min-heap keyed by float priorities, with a sorted run beside it:
    a FIFO of entries whose priorities never decrease, filled by
    {!push_last}.

    Used by the discrete-event simulators' schedulers (the flow simulator
    and the packet simulator). The heap keeps priorities, insertion numbers
    and values in parallel arrays (priorities unboxed), so {!push},
    {!push_last} and {!take} allocate nothing once the arrays have grown to
    the largest size seen. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val push_last : 'a t -> float -> 'a -> unit
(** [push_last h prio x] inserts [x] with priority [prio], as {!push} does:
    with no NaN priority among the entries, the pop order is the one the
    same sequence of {!push} calls would give. When [prio] is at least the
    priority of the run's last entry (any [prio] while the run is empty),
    [x] is appended to the sorted run in O(1), and removing the run's head
    is O(1) too. Any other priority, NaN included, takes {!push}'s
    O(log n) path. A caller whose [push_last] priorities never decrease (a
    periodic re-arm at [now + period]) stays on the O(1) path. *)

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
