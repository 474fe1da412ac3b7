(** OpenFlow-style switch flow tables. The paper implemented REsPoNseTE in
    both OpenFlow and Click; this module is the OpenFlow-flavoured data plane:
    per-switch match/action tables with priorities, weighted multi-path
    ("select group") actions and per-entry counters. Matching is on the
    (origin, destination) pair — the granularity REsPoNse routes at. *)

type matcher = {
  src : int option;  (** origin node, [None] = wildcard *)
  dst : int option;  (** destination node, [None] = wildcard *)
}

type action =
  | Drop
  | Forward of (int * float) list
      (** weighted output arcs (an OpenFlow select group); weights need not
          be normalised *)

type entry = {
  priority : int;
  matcher : matcher;
  action : action;
  mutable packets : int;
  mutable bytes : float;
}

type t

val create : unit -> t

val add : t -> priority:int -> matcher:matcher -> action:action -> unit
(** Entries with equal priority match in insertion order. *)

val lookup : t -> src:int -> dst:int -> entry option
(** Highest-priority matching entry. Does not touch counters; the data plane
    calls {!account} when it actually forwards. *)

val account : entry -> bytes:float -> unit

val size : t -> int

val select : entry -> key:int -> int option
(** Deterministic weighted choice of an output arc for a flow key (an
    OpenFlow select bucket): the same key always picks the same arc for a
    given weight vector, and keys spread across arcs proportionally to
    weight. [None] for [Drop] or an empty group. *)
