(** The two decision pipelines the benchmark traces, rebuilt from
    public calls with a timer around every stage.

    [dds] is the decision of {!Core.Search_policy.policy} taken apart:
    {!Sched.Policy.profile_of}, {!Core.Branching.order}, the durations
    and {!Core.Bound.thresholds}, {!Core.Search_state.create},
    {!Core.Search.run} and {!Core.Search_state.start_now_set}.
    [backfill] times {!Sched.Backfill.plan}, the whole decision of
    {!Sched.Backfill.policy}.  Both time each stage inline, on the
    live context: {!Cluster.Running_set} is mutable, so a context kept
    for a later replay would see the final running set.

    Both policies start exactly the jobs the library policies start
    (the benchmark's test checks it), so a traced run has the same
    outcomes as an untraced one. *)

type t = {
  profile_of : Samples.t;  (** seconds per DDS decision, per stage *)
  branching : Samples.t;
  thresholds : Samples.t;  (** durations plus thresholds *)
  state_create : Samples.t;
  search : Samples.t;
  plan : Samples.t;  (** seconds per {!Sched.Backfill.plan} call *)
  mutable segments : int;
      (** sum over DDS decisions of the profile's segment count *)
  mutable searched : int;  (** DDS decisions with a non-empty queue *)
  mutable nodes : int;
  mutable leaves : int;
  mutable exhausted : int;
}

val create : unit -> t

val dds : t -> Core.Search_policy.config -> Sched.Policy.t
(** Same name and starts as [fst (Core.Search_policy.policy config)].
    @raise Invalid_argument for the local-search and fairshare
    extensions, which the staged pipeline does not rebuild. *)

val backfill : t -> Sched.Priority.t -> Sched.Policy.t
(** Same name and starts as [Sched.Backfill.policy], one reservation. *)
