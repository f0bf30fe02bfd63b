(** One policy x one trace -> the paper's reported measures.

    Wraps {!Engine.run}, restricts statistics to jobs submitted in the
    trace's measurement window (the month, excluding warm-up and
    cool-down) and packages the aggregate measures, the per-class
    matrix and the raw outcomes for excessive-wait post-processing. *)

type recorder =
  | Log of Decision_log.t  (** one event per decision point *)
  | Series of Series.t  (** the run-health sampler *)
  | Metrics of Simcore.Metrics.t
      (** a fresh registry for the engine's [schedsim_*] instruments;
          the policy's own registry ({!Sched.Policy.t.metrics}) is
          enabled alongside it *)
  | Validation
      (** replay the finished schedule through
          {!Schedcheck.Validator}: differentially for the EASY backfill
          family (by policy name), machine-level invariants otherwise *)
(** What a run records besides its measures.  Each recorder but
    [Validation] becomes an {!Observer.t}; validation runs once over
    the finished schedule. *)

type t = {
  policy_name : string;
  r_star : Engine.r_star;
  measured : Metrics.Outcome.t list;  (** outcomes of in-window jobs *)
  aggregate : Metrics.Aggregate.t;  (** over [measured]; queue length
                                        averaged over the window *)
  class_matrix : Metrics.Class_matrix.t;
  decisions : int;
  wall_clock : float;  (** host seconds spent simulating *)
  utilization : float;
      (** fraction of node-time actually used within the measurement
          window (all jobs running there, not only measured ones) *)
  queue_samples : Engine.queue_sample list;
      (** waiting-queue length after each decision (whole simulation),
          for backlog-dynamics analyses *)
  log : Decision_log.t option;  (** the [Log] recorder's log *)
  validation : Schedcheck.Report.t option;
      (** the validation report, when [Validation] was recorded;
          violations are data, never raised *)
  series : Series.t option;  (** the [Series] recorder's sampler *)
}
(** The recordings ride along in the run caches, so they can be
    exported after the fact. *)

val simulate :
  ?machine:Cluster.Machine.t ->
  ?record:recorder list ->
  r_star:Engine.r_star ->
  policy:Sched.Policy.t ->
  Workload.Trace.t ->
  t
(** Simulate with the given recorders (default none).  [wall_clock]
    covers the simulation, its observers and the validation.  Under
    [Predicted] runtimes validation keeps only the machine-level
    invariants: the stateful estimator cannot be replayed after the
    fact. *)

val excess : t -> threshold:float -> Metrics.Excess.t
(** Excessive wait of the measured jobs w.r.t. a threshold. *)

val fcfs_thresholds : t -> float * float
(** [(max wait, 98th-percentile wait)] of this run — applied to an
    FCFS-backfill run they are the paper's E^max and E^98% thresholds
    for the month. *)
