(** Complete, anytime, discrepancy-based tree search (Section 2.2).

    All algorithms explore root-to-leaf paths of the job-order tree in
    a specific order, keep the best complete schedule seen so far under
    {!Objective.compare}, and stop when the tree is exhausted or the
    node budget is spent.  A node visit is one job placement
    ({!Search_state.place}), matching the paper's node-limit L.

    - [Dds] (depth-bounded discrepancy search, Walsh 1997): iteration
      [i] explores exactly the paths whose deepest discrepancy is at
      choice-depth [i - 1]; discrepancies are allowed above, prohibited
      below.  Iteration 0 is the pure heuristic path.
    - [Lds] (improved limited discrepancy search, Korf 1996): iteration
      [k] explores exactly the paths with [k] discrepancies.
    - [Lds_original] (Harvey & Ginsberg 1995): iteration [k] explores
      every path with at most [k] discrepancies, re-visiting the paths
      of earlier iterations — the redundancy Korf's variant removes.
      Included for the search-algorithm ablation.
    - [Dfs] is plain depth-first search, included as a baseline and for
      exhaustive-equivalence tests.

    The heuristic path (iteration 0) is always evaluated in full, even
    if it exceeds the budget, so the policy always has a schedule. *)

type algorithm = Dfs | Lds | Lds_original | Dds

val algorithm_name : algorithm -> string

type result = {
  best : Objective.t;  (** objective of the best complete schedule *)
  best_order : int array;  (** job indices in consideration order *)
  best_starts : float array;  (** start times aligned with [best_order] *)
  nodes_visited : int;
  leaves_evaluated : int;
  iterations : int;  (** completed discrepancy iterations *)
  exhausted : bool;  (** the whole tree was explored *)
}

val run :
  ?prune:bool ->
  ?probe:Simcore.Probe.t ->
  algorithm ->
  budget:int ->
  Search_state.t ->
  result
(** [run algo ~budget state] searches and returns the best schedule.
    [prune] enables the branch-and-bound extension: subtrees whose
    partial objective already cannot beat the incumbent are skipped
    (sound because partial objectives are monotone).  Requires at least
    one waiting job.  @raise Invalid_argument on an empty state.

    [probe], when given, is reset and then filled with this run's
    search effort: node/leaf/iteration counts, budget, the exhausted
    flag, the number of incumbent improvements and the discrepancy
    iteration (and, for DDS, forced choice-depth) of the final winner.
    Probe writes happen only at incumbent improvements (leaf
    boundaries) and once at the end of the run — never per
    {!Search_state.place} — so the hot path stays allocation-free with
    the probe on (enforced by the allocation test suite). *)
