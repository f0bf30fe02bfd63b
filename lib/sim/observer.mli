(** Run observers: hooks the engine calls as a simulation progresses.

    An observer is a record of three hooks.  {!Engine.run} takes a list
    of them and calls every hook in list order: [on_start] for each job
    a decision starts, [on_finish] for each departure, and
    [on_decision] once per decision point, after that decision's starts
    took effect.  Decision points are exactly the arrival and departure
    instants, so completions are sampled too.

    The engine knows no observer by name: the decision log
    ({!Decision_log.observer}), the run-health sampler
    ({!Series.observer}) and the engine's metric instruments
    ({!instruments}) are all built here or in their own modules.  With
    no observers the engine pays one pattern match per hook site. *)

type t = {
  on_decision :
    now:float ->
    queue:int ->
    started:int ->
    waiting:Workload.Job.t list ->
    running:Cluster.Running_set.t ->
    unit;
      (** [queue] jobs still wait (the length of [waiting], in submit
          order) after the decision started [started] jobs; [running]
          already holds them. *)
  on_start : now:float -> Workload.Job.t -> unit;
  on_finish : now:float -> Workload.Job.t -> unit;
}

val none : t
(** Every hook a no-op: the base for observers that use only some. *)

val decision :
  t list ->
  now:float ->
  queue:int ->
  started:int ->
  waiting:Workload.Job.t list ->
  running:Cluster.Running_set.t ->
  unit

val start : t list -> now:float -> Workload.Job.t -> unit
val finish : t list -> now:float -> Workload.Job.t -> unit
(** Call one hook of every observer, in list order.  These allocate
    nothing themselves. *)

val instruments : ?probe:Simcore.Probe.t -> Simcore.Metrics.t -> t
(** Register the engine's run-health instruments on a registry
    (decision/start/finish counters, queue/busy/backlog gauges, wait
    and queue-depth histograms, names prefixed [schedsim_]) and record
    into them.  With a [probe] (a searching policy's
    {!Sched.Policy.t.probe}) it registers the search instruments after
    them (decision, node, leaf, exhausted and improvement counters and
    a nodes-per-decision histogram, prefixed [schedsim_search_]) and
    fills them from the probe after every decision whose queue was
    non-empty before its starts — the decisions at which the policy
    searched.
    @raise Invalid_argument if the registry already holds one of the
    names. *)
