(** Event-driven simulation engine.

    Replays a trace against a scheduling policy: scheduling decisions
    happen exactly at job arrivals and departures (as in the paper);
    all events at one instant are drained before the policy is
    consulted once.  Jobs run for [min(T, R)] — the system kills a job
    at its requested limit — and hold their nodes for the whole time.

    The engine validates every start the policy requests (the job must
    be waiting and fit the free nodes) and raises [Invalid_argument] on
    a violation, so a buggy policy cannot silently oversubscribe the
    machine. *)

type r_star =
  | Actual  (** the paper's R* = T: perfect information *)
  | Requested  (** the paper's R* = R: raw user estimates *)
  | Predicted
      (** the paper's Section 7 future-work idea: correct the user
          estimate with an on-line prediction.  The engine tracks the
          mean actual/requested ratio of completed jobs and scales each
          estimate by it (clamped to [1 min, R]).  Predictions may
          undershoot; schedulers must tolerate jobs outliving their
          estimated completion (the availability profile does). *)

val r_star_name : r_star -> string

type result = {
  outcomes : Metrics.Outcome.t list;  (** one per job, start order *)
  decisions : int;
}

val run :
  ?machine:Cluster.Machine.t ->
  ?observers:Observer.t list ->
  r_star:r_star ->
  policy:Sched.Policy.t ->
  Workload.Trace.t ->
  result
(** Simulate the whole trace to completion (default machine:
    {!Cluster.Machine.titan}).  Every observer sees each job start and
    finish and, after each decision point's starts took effect, the
    decision itself (see {!Observer}); observers never change the
    simulation.  With the default empty list no observer code runs.
    @raise Invalid_argument if some job is wider than the machine or if
    the policy requests an invalid start. *)
