(** The on-line scheduling policy interface.

    A policy is consulted at every decision point (job arrival or
    departure).  It sees the current time, the waiting queue in submit
    order, the running set, and the runtime estimator [r_star] the
    simulation was configured with (R* = T for actual runtimes, R* = R
    for user estimates).  It returns the waiting jobs to start *now*;
    the engine validates that they fit the free nodes.

    Policies must be deterministic functions of their arguments (plus
    any internal state they carry); the engine may call [decide] any
    number of times. *)

type context = {
  now : float;
  waiting : Workload.Job.t list;  (** submit order *)
  running : Cluster.Running_set.t;
  r_star : Workload.Job.t -> float;  (** scheduler-visible runtime *)
}

type t = {
  name : string;
  decide : context -> Workload.Job.t list;
  probe : Simcore.Probe.t option;
      (** search-effort record the policy overwrites on every [decide]
          ([None] for policies that do not search).  A decision log's
          observer ([Sim.Decision_log.observer]) snapshots it after
          each decision, and a [Metrics] recorder's instruments
          ([Sim.Observer.instruments]) fill the search metrics from
          it. *)
}

val make : name:string -> decide:(context -> Workload.Job.t list) -> t
(** A policy without a probe ([probe = None]). *)

val profile_of : context -> Cluster.Profile.t
(** Availability profile implied by the running set at [ctx.now]. *)

val run_now : t
(** Trivial greedy policy: start jobs in FCFS order while they fit,
    no reservations (pure space sharing, starves wide jobs).  Useful
    as a worst-case baseline and in tests. *)
