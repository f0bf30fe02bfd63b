let digest outcomes =
  let b = Buffer.create 65536 in
  List.stable_sort
    (fun (a : Metrics.Outcome.t) (b : Metrics.Outcome.t) ->
      compare a.job.Workload.Job.id b.job.Workload.Job.id)
    outcomes
  |> List.iter (fun (o : Metrics.Outcome.t) ->
         Printf.bprintf b "%d %h %h\n" o.job.Workload.Job.id o.start o.finish);
  Digest.to_hex (Digest.string (Buffer.contents b))

let validate ~policy ~r_star trace outcomes =
  let replay : Workload.Job.t -> float =
    match r_star with
    | Sim.Engine.Actual -> fun j -> Float.min j.runtime j.requested
    | Sim.Engine.Requested -> fun j -> j.requested
    | Sim.Engine.Predicted -> invalid_arg "Schedule.validate: R*=pred"
  in
  Schedcheck.Validator.validate
    ~expect:(Schedcheck.Validator.expectation_of_policy policy)
    ~r_star:replay ~subject:policy ~trace ~outcomes ()
