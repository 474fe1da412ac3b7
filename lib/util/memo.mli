(** Bounded LRU memo tables for [Check.Cost]-certified pure functions.

    A cache maps keys to previously computed results, evicting the least
    recently used entry once [capacity] is exceeded, so a long replay over
    rotating traffic matrices cannot grow the heap without bound. All
    operations take an internal [Mutex], making a cache safe to share
    across domains (and keeping {!Check.Share}'s guard discipline happy
    for the global caches registered in [lib/core]).

    Registration contract: a function may only be wrapped when it is
    listed under [memo] in the [cost] section of [check/analyze.json] and
    [respctl analyze] certifies it memo-safe — transitively free of
    nondeterminism, IO and partiality, with no direct raise in its own
    body (the [memo-unsafe] rule). The cache itself upholds the matching
    runtime half of the contract: [compute] runs {e outside} the lock and
    an exceptional outcome is never cached, so a guard raise cannot be
    replayed as a stale success. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** A fresh cache holding at most [capacity] entries (default 128).
    @raise Invalid_argument if [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> compute:('k -> 'v) -> 'v
(** [find_or_add t k ~compute] returns the cached value for [k], or runs
    [compute k], stores the result, and returns it. The computation runs
    without the lock held, so a memoized function may recursively consult
    its own cache; if two domains race on the same missing key both
    compute and the later insert wins (the results are equal for a
    certified-pure [compute]). *)

val clear : ('k, 'v) t -> unit
(** Drops every entry. *)
