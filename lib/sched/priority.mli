(** Job priority functions for priority-backfill policies.

    A priority scores each waiting job; a larger [key] means a higher
    priority.  Equal keys always go to submission order (and finally
    job id, {!Workload.Job.compare_submit}), so queue orders are total
    and deterministic.  {!order} is the one way to sort a queue by a
    priority: it scores every job once per decision, not once per
    comparison. *)

type t = {
  name : string;
  key : now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float;
}

val fcfs : t
(** First come, first served: a constant key. *)

val sjf : t
(** Shortest estimated runtime first (key: minus the estimated
    runtime).  Known to starve long jobs. *)

val lxf : t
(** Largest expansion factor (slowdown) first: the key is
    {!expansion_factor}. *)

val lxf_w : weight_per_hour:float -> t
(** LXF plus a small additive weight for each hour of waiting time
    (the paper's LXF&W). *)

val expansion_factor :
  now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float
(** The bounded expansion factor [(wait + R) / max(R, 1min)], with R
    the estimated runtime: the bounded slowdown a waiting job would
    have if started now. *)

val order :
  t ->
  now:float ->
  r_star:(Workload.Job.t -> float) ->
  Workload.Job.t list ->
  Workload.Job.t array
(** The jobs by descending key, equal keys in submission order.  Each
    job's key is evaluated once, and the sort compares only those
    floats and then {!Workload.Job.compare_submit}, allocating nothing
    per comparison.  An input that is already in this order (every
    FCFS call on a submit-ordered queue) comes back as is after one
    linear check.  The result is what [List.stable_sort] gives with
    the pairwise comparator "larger key first, then
    [compare_submit]". *)
