(** Correctness checks applied to every simulation the benchmark runs,
    outside its timed regions. *)

val digest : Metrics.Outcome.t list -> string
(** Hex digest of a schedule: every job's id, start and finish, in job
    id order, floats printed exactly.  Two runs of the same program on
    the same trace have equal digests. *)

val validate :
  policy:string ->
  r_star:Sim.Engine.r_star ->
  Workload.Trace.t ->
  Metrics.Outcome.t list ->
  Schedcheck.Report.t
(** {!Schedcheck.Validator.validate} with the expectation derived from
    the policy name and the profiles rebuilt with the run's estimator,
    as {!Sim.Engine.run}'s own [?validate] does.
    @raise Invalid_argument for [Predicted], which no workload runs. *)
