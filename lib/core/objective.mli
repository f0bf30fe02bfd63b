(** The hierarchical two-level objective (Section 2.1).

    Schedule A is better than schedule B iff A has smaller total
    excessive wait, or the totals are equal (within a float tolerance)
    and A has smaller average bounded slowdown.  Values accumulate
    per-job contributions, so partial (prefix) values are monotone:
    adding a job can only increase both components — which is what
    makes branch-and-bound pruning sound. *)

type secondary = Bounded_slowdown | Avg_wait
(** The tie-breaking goal.  [Bounded_slowdown] is the paper's choice;
    [Avg_wait] is the alternative a site preferring raw responsiveness
    would declare (goal-oriented scheduling is exactly about making
    this a configuration, not a code change). *)

val secondary_name : secondary -> string
val min_contribution : secondary -> float
(** Smallest possible per-job secondary value (1.0 for slowdown, 0.0
    for wait) — the admissible bound branch-and-bound pruning uses. *)

type t = {
  excess : float;  (** total excessive wait, seconds *)
  secondary_sum : float;  (** sum of per-job secondary values *)
  jobs : int;  (** number of jobs accumulated *)
}

val zero : t

val add :
  ?secondary:secondary ->
  t ->
  wait:float ->
  threshold:float ->
  est_runtime:float ->
  t
(** Accumulate one job that would start after [wait] seconds in queue,
    with excessive-wait threshold [threshold] and scheduler-estimated
    runtime [est_runtime].  [secondary] defaults to the paper's
    [Bounded_slowdown]. *)

val avg_secondary : t -> float

val avg_slowdown : t -> float
(** Alias of {!avg_secondary} (meaningful when accumulated with
    [Bounded_slowdown]). *)

val compare : t -> t -> int
(** Lexicographic: total excess first, then average slowdown.  Both
    comparisons use a small relative tolerance so float noise does not
    override the hierarchy. *)

val is_better : candidate:t -> incumbent:t -> bool
(** [compare candidate incumbent < 0]. *)

val is_better_unboxed :
  jobs:int ->
  excess:float ->
  secondary_sum:float ->
  than_excess:float ->
  than_secondary_sum:float ->
  bool
(** [is_better] on the components of two objectives over the same
    [jobs >= 1] jobs, without building either record: the search's
    per-leaf test.  Gives the same answer as [is_better] on every
    finite input (tested); inlined, it allocates nothing. *)

val pp : Format.formatter -> t -> unit
