type recorder =
  | Log of Decision_log.t
  | Series of Series.t
  | Metrics of Simcore.Metrics.t
  | Validation

type t = {
  policy_name : string;
  r_star : Engine.r_star;
  measured : Metrics.Outcome.t list;
  aggregate : Metrics.Aggregate.t;
  class_matrix : Metrics.Class_matrix.t;
  decisions : int;
  wall_clock : float;
  utilization : float;
  outcomes : Metrics.Outcome.t list;
  log : Decision_log.t option;
  validation : Schedcheck.Report.t option;
  series : Series.t option;
}

(* Sum over the outcomes of [weight o] times the length of
   [enter o, leave o) inside [from_, upto). *)
let overlap_sum ~from_ ~upto ~enter ~leave ~weight outcomes =
  List.fold_left
    (fun acc (o : Metrics.Outcome.t) ->
      let overlap = Float.min upto (leave o) -. Float.max from_ (enter o) in
      if overlap > 0.0 then acc +. (overlap *. weight o) else acc)
    0.0 outcomes

(* Busy node-seconds inside [from_, upto), over machine capacity. *)
let utilization_of ~machine ~from_ ~upto outcomes =
  let window = upto -. from_ in
  if window <= 0.0 then 0.0
  else
    overlap_sum ~from_ ~upto outcomes
      ~enter:(fun (o : Metrics.Outcome.t) -> o.start)
      ~leave:(fun (o : Metrics.Outcome.t) -> o.finish)
      ~weight:(fun (o : Metrics.Outcome.t) -> float_of_int o.job.nodes)
    /. (float_of_int machine.Cluster.Machine.nodes *. window)

(* Little's identity: a job waits over [submit, start), and submits and
   starts happen only at decision points, so the summed overlaps over
   the window are the integral of the engine's queue length. *)
let queue_average_of ~from_ ~upto outcomes =
  if upto <= from_ then 0.0
  else
    overlap_sum ~from_ ~upto outcomes
      ~enter:(fun (o : Metrics.Outcome.t) -> o.job.submit)
      ~leave:(fun (o : Metrics.Outcome.t) -> o.start)
      ~weight:(fun _ -> 1.0)
    /. (upto -. from_)

let observer ~(policy : Sched.Policy.t) = function
  | Log l -> Some (Decision_log.observer l ~probe:policy.probe)
  | Series s -> Some (Series.observer s)
  | Metrics reg -> Some (Observer.instruments ?probe:policy.probe reg)
  | Validation -> None

let validate ~machine ~r_star ~(policy : Sched.Policy.t) trace outcomes =
  let expect =
    match r_star with
    | Engine.Predicted -> Schedcheck.Validator.Generic
    | Actual | Requested ->
        Schedcheck.Validator.expectation_of_policy policy.name
  in
  let replay_r_star (j : Workload.Job.t) =
    match r_star with
    | Engine.Requested -> j.requested
    | Actual | Predicted -> Float.min j.runtime j.requested
  in
  Schedcheck.Validator.validate ~machine ~expect ~r_star:replay_r_star
    ~subject:policy.name ~trace ~outcomes ()

let simulate ?(machine = Cluster.Machine.titan) ?(record = []) ~r_star ~policy
    trace =
  let t0 = Simcore.Clock.monotonic_s () in
  let observers = List.filter_map (observer ~policy) record in
  let result = Engine.run ~machine ~observers ~r_star ~policy trace in
  let validation =
    if List.mem Validation record then
      Some (validate ~machine ~r_star ~policy trace result.Engine.outcomes)
    else None
  in
  let wall_clock = Simcore.Clock.monotonic_s () -. t0 in
  let measured =
    List.filter
      (fun (o : Metrics.Outcome.t) -> Workload.Trace.in_window trace o.job)
      result.Engine.outcomes
  in
  let from_ = Workload.Trace.measure_start trace in
  let upto = Workload.Trace.measure_end trace in
  let outcomes = result.Engine.outcomes in
  let avg_queue_length = queue_average_of ~from_ ~upto outcomes in
  {
    policy_name = policy.Sched.Policy.name;
    r_star;
    measured;
    aggregate = Metrics.Aggregate.compute ~avg_queue_length measured;
    class_matrix = Metrics.Class_matrix.compute measured;
    decisions = result.Engine.decisions;
    wall_clock;
    utilization = utilization_of ~machine ~from_ ~upto outcomes;
    outcomes;
    log = List.find_map (function Log l -> Some l | _ -> None) record;
    validation;
    series = List.find_map (function Series s -> Some s | _ -> None) record;
  }

let queue_average t ~from_ ~upto = queue_average_of ~from_ ~upto t.outcomes

let excess t ~threshold = Metrics.Excess.compute ~threshold t.measured
