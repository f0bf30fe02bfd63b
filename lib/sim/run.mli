(** One policy x one trace -> the paper's reported measures.

    Wraps {!Engine.run}, restricts statistics to jobs submitted in the
    trace's measurement window (the month, excluding warm-up and
    cool-down) and packages the aggregate measures, the per-class
    matrix and the raw outcomes for excessive-wait post-processing. *)

type recorder =
  | Log of Decision_log.t  (** one event per decision point *)
  | Series of Series.t  (** the run-health sampler *)
  | Metrics of Simcore.Metrics.t
      (** a fresh registry for the engine's [schedsim_*] instruments,
          plus the [schedsim_search_*] ones when the policy has a
          probe ({!Observer.instruments}) *)
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
  aggregate : Metrics.Aggregate.t;
      (** over [measured]; the queue length is averaged over the
          window, counting every job that waits there ({!queue_average}) *)
  class_matrix : Metrics.Class_matrix.t;
  decisions : int;
  wall_clock : float;  (** host seconds spent simulating *)
  utilization : float;
      (** fraction of node-time actually used within the measurement
          window (all jobs running there, not only measured ones) *)
  outcomes : Metrics.Outcome.t list;
      (** every job's outcome, warm-up and cool-down included *)
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

val queue_average : t -> from_:float -> upto:float -> float
(** Time-averaged waiting-queue length over [[from_, upto)] (0 for an
    empty window): by Little's identity, the sum over every job of the
    part of its wait [[submit, start)] inside the window, over the
    window's length.  Submits and starts happen only at decision
    points, so this is exactly the average of the engine's queue length
    over the window. *)

val excess : t -> threshold:float -> Metrics.Excess.t
(** Excessive wait of the measured jobs w.r.t. a threshold. *)
