(** Branching heuristics for the search tree (Section 2.2).

    The heuristic fixes, once per decision point, the order in which
    waiting jobs are preferred; the left-most branch at every tree node
    follows it and any other branch is a discrepancy. *)

type t = Fcfs | Lxf

val name : t -> string
(** ["fcfs"] or ["lxf"]. *)

val order :
  t ->
  now:float ->
  r_star:(Workload.Job.t -> float) ->
  Workload.Job.t list ->
  Workload.Job.t array
(** The waiting jobs in heuristic preference order: {!Sched.Priority.order}
    with {!Sched.Priority.fcfs} (submission order) or
    {!Sched.Priority.lxf} (descending current expansion factor, ties by
    submission).  Each job is scored once per decision point. *)
