(** Failover path computation (Section 4.3): one path per pair, chosen so
    that the pair's installed paths combined are not vulnerable to a single
    link failure; where the topology cannot offer full disjointness, the path
    least likely to share a failure is chosen. *)

val pair_path :
  Topo.Graph.t ->
  protect:(int * int, Topo.Path.t list) Hashtbl.t ->
  int * int ->
  ((int * int) * Topo.Path.t) option
(** One pair's failover path, or [None] when the topology offers nothing
    beyond the already-installed paths. Reads only the graph and the
    fully-built [protect] table — no shared mutable state — so distinct
    pairs may be computed on distinct domains (certified parallel
    entrypoint, see check/analyze.json). *)

val compute :
  ?jobs:int ->
  Topo.Graph.t ->
  protect:(int * int, Topo.Path.t list) Hashtbl.t ->
  pairs:(int * int) list ->
  (int * int, Topo.Path.t) Hashtbl.t
(** [protect] holds, per pair, the already-installed (always-on + on-demand)
    paths the failover must avoid. Pairs whose failover would duplicate an
    installed path are omitted. [jobs] (default 1) fans the per-pair loop
    out over that many domains; the result is identical for any [jobs]
    (results are merged in [pairs] order). *)

val vulnerable_pairs : Topo.Graph.t -> Tables.t -> (int * int) list
(** Pairs for which a single link failure can disconnect every installed
    path — the quantity behind the paper's claim that a single failover path
    deals with the vast majority of failures. *)
