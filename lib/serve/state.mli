(** Serving state: an immutable routing snapshot behind an [Atomic.t],
    plus the background domain that rebuilds it.

    The tables and the per-pair route arrays are built once, at
    {!create}: they depend only on the topology, the power model, the
    pairs and the config, none of which changes while a state lives.
    Readers ({!resolve}) never take a lock: they load the current
    snapshot and the current link-status vector with two atomic reads and
    walk the pre-compiled route arrays. Writers ({!update_demand},
    {!set_link}, {!reload}) mutate a pending traffic matrix under a
    mutex, bump a generation counter and signal the recompute domain. A
    rebuild is one {!Response.Framework.evaluate} of a private copy of
    that matrix over the tables built at {!create}, off the hot path; it
    publishes a fresh snapshot (sharing the route arrays) with one
    [Atomic.set] — the hot swap is invisible to concurrent readers.

    Link failures take effect immediately (the next {!resolve} skips
    routes crossing a down link — the paper's failover needs no
    reconvergence); the recompute that follows only refreshes the
    power/level figures reported by stats. *)

type t

val create :
  ?config:Response.Framework.config ->
  ?jobs:int ->
  ?journal:Journal.t ->
  Topo.Graph.t ->
  Power.Model.t ->
  pairs:(int * int) list ->
  demand:Traffic.Matrix.t ->
  t
(** Builds the tables (through {!Response.Framework.precompute_cached})
    and the initial snapshot synchronously (so a successfully created
    server always has tables) and spawns the recompute domain. The
    matrix is copied; the caller's value is not retained. [jobs]
    (default 1) fans out the failover stage of this boot-time build
    only; rebuilds never recompute the tables.

    With [journal], the journal's replayed records are staged on top of
    [demand] {e before} the initial build — so a restart after [kill -9]
    boots straight into the pre-crash state — every accepted
    {!update_demand}/{!set_link} is appended (fsync'd) before it is
    acknowledged, and each successful snapshot swap rewrites the journal
    as a checkpoint of the staged state (a diff against [demand], which
    must therefore be the same boot matrix across restarts).
    @raise Invalid_argument as {!Response.Framework.precompute} — e.g.
    infeasible always-on demands for the initial matrix. *)

val resolve : t -> origin:int -> dest:int -> Wire.path_status * int * int list
(** First installed path of the pair, in activation order, whose links
    are all up: [(Path_ok, level, nodes)] — or [Unknown_pair] /
    [No_usable_path] with level 0 and no nodes. Lock-free; allocation-free
    apart from the result triple (node lists are pre-compiled into the
    snapshot). *)

val update_demand : t -> origin:int -> dest:int -> bps:float -> (int, string) result
(** Stages a demand write (bit/s) and wakes the recompute domain.
    [Ok target] is the snapshot generation that will include the write.
    [Error _] on an out-of-range node, a diagonal pair, or a
    non-finite/negative demand — nothing is staged. *)

val set_link : t -> link:int -> up:bool -> (int, string) result
(** Publishes the link status immediately (copy-on-write vector swap)
    and wakes the recompute domain; same [Ok]/[Error] contract as
    {!update_demand}. *)

val reload : t -> int
(** Forces a rebuild even with no staged writes and blocks until a
    snapshot at least that fresh is live (or the state is stopped);
    returns the live snapshot's version. *)

val version : t -> int
(** Generation of the live snapshot. *)

val figures : t -> int * int * float
(** [(version, levels, power_percent)] of the live snapshot: its
    generation, the deepest on-demand level its evaluation activated, and
    the power draw of its steady state in percent of full. Read from one
    load of the snapshot, so all three belong to the same snapshot even
    while a swap lands; three separate reads could mix two. *)

val swap_count : t -> int
(** Successful snapshot swaps since {!create} (0 right after). *)

val stop : t -> unit
(** Signals the recompute domain and joins it. Idempotent. A rebuild in
    flight finishes first; a blocked {!reload} is released. *)
