(** Mutable search-tree state: incremental schedule construction.

    A tree node at depth [d] corresponds to having placed [d + 1] jobs
    onto the availability profile, each at its earliest feasible start
    given the running jobs and the placements above it on the path
    (Section 2.2: "the start time of each job is computed in the order
    it appears on the path").

    Two backtracking strategies share this interface:

    - [Trail] (default): one working profile plus a reverse-delta
      trail; {!place} marks the trail before reserving and {!unplace}
      rolls back exactly the segments the reservation touched, so a
      place/unplace pair costs O(segments touched), not O(profile).
    - [Snapshot]: the original one-profile-snapshot-per-depth scheme
      ({!Cluster.Profile.copy_into} per place), kept as a debug oracle
      — the equivalence test suite checks both strategies visit the
      same nodes and return identical results.

    The hot path allocates nothing per node either way.

    Jobs are indexed 0 .. n-1 in *heuristic order* (see {!Branching});
    child rank 0 of any node is the lowest-indexed unused job.  The
    unused set is a doubly-linked list, so the heuristic child is found
    in O(1) and rank [r] in O(r) — no per-child rescans. *)

type t

type backtrack = Trail | Snapshot
(** Backtracking strategy; [Trail] is the fast default, [Snapshot] the
    copy-based oracle. *)

val create :
  ?secondary:Objective.secondary ->
  ?backtrack:backtrack ->
  ?on_place:(depth:int -> job:int -> start:float -> unit) ->
  now:float ->
  profile:Cluster.Profile.t ->
  jobs:Workload.Job.t array ->
  durations:float array ->
  thresholds:float array ->
  unit ->
  t
(** [profile] is the availability profile of the running set at [now]
    (never mutated — the state works on copies); [durations.(i)] is the
    scheduler-visible runtime of [jobs.(i)]; [thresholds.(i)] its
    excessive-wait bound.  [secondary] selects the tie-breaking goal
    (default: the paper's bounded slowdown).  [backtrack] selects the
    strategy (default [Trail]).  [on_place] is an instrumentation hook
    invoked after every placement — used by the equivalence tests to
    record visit sequences; leave unset on the hot path.
    @raise Invalid_argument on array length mismatch. *)

val replicable : t -> bool
(** [Trail] backtracking and no [on_place] hook: the states {!replica}
    accepts. *)

val replica : ?into:t -> t -> t
(** A fresh state over the same decision point (profile, jobs,
    durations, thresholds, goal), with nothing placed and a node
    counter of 0, that shares only the read-only inputs with [t]: it
    can search on another domain while [t] is used here.  Its buffers
    are sized for a full path, so placing and unplacing on it never
    allocates.  [into], a replica of an earlier decision point that is
    no longer searched, lends its trail buffers (sized for four
    records per placement, the one large part for long queues), so
    that a replica per decision allocates only small arrays.
    @raise Invalid_argument unless [replicable t]. *)

val secondary : t -> Objective.secondary
val backtrack : t -> backtrack

val job_count : t -> int
val now : t -> float

val nodes_visited : t -> int
(** Total placements performed so far (the paper's "nodes"). *)

val set_nodes_visited : t -> int -> unit
(** Overwrite the node counter: a search that visits nodes on
    {!replica}s books their count here. *)

val place : t -> depth:int -> job:int -> unit
(** [place t ~depth ~job] chooses job index [job] at [depth] and places
    it at its earliest start (readable via {!start_at}).  Returning the
    start would box a float per node, so it doesn't.  Depths must be
    filled in order; [job] must be unused.  Counts one node visit. *)

val unplace : t -> depth:int -> unit
(** Undo the placement at [depth] (must be the deepest placement). *)

val reset : t -> unit
(** Unplace everything: clears used flags, chosen jobs, recorded starts
    and partial objectives, rebuilds the unused list, and (in [Trail]
    mode) rewinds the working profile to its base state — safe after a
    search unwound through an exception ({!Search.Budget_spent}) and
    left placements behind.  Does not reset the node counter. *)

val used : t -> int -> bool
val chosen : t -> depth:int -> int
val start_at : t -> depth:int -> float
val partial : t -> depth:int -> Objective.t
(** Objective of the path prefix through [depth]. *)

val leaf_objective : t -> Objective.t
(** Objective of a complete path (depth [n-1] placed). *)

val leaf_excess : t -> float
val leaf_secondary : t -> float
(** The two components of {!leaf_objective}, without building the
    record (inlined in release builds, so reading them allocates
    nothing). *)

val nth_unused : t -> int -> int option
(** [nth_unused t r] is the index of the [r]-th unused job in
    heuristic order (rank 0 = heuristic choice), if any.  O(r). *)

val first_unused : t -> int
(** Lowest unused job index, or [job_count t] (the sentinel) when all
    jobs are placed.  O(1) — the head of the unused list. *)

val next_unused : t -> int -> int
(** Next unused job index after [job] (which must itself be unused),
    or [job_count t] when [job] is the last.  O(1).  Together with
    {!first_unused} this iterates the children of a node without the
    O(rank) walk of {!nth_unused}. *)

val start_now_set : t -> order:int array -> starts:float array -> Workload.Job.t list
(** Given a recorded best path (job indices + start times), the jobs
    whose start time equals the decision time (within 1 s), in path
    order — the jobs the policy starts immediately. *)
