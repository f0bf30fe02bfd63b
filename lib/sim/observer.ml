type t = {
  on_decision :
    now:float ->
    queue:int ->
    started:int ->
    waiting:Workload.Job.t list ->
    running:Cluster.Running_set.t ->
    unit;
  on_start : now:float -> Workload.Job.t -> unit;
  on_finish : now:float -> Workload.Job.t -> unit;
}

let none =
  {
    on_decision = (fun ~now:_ ~queue:_ ~started:_ ~waiting:_ ~running:_ -> ());
    on_start = (fun ~now:_ _ -> ());
    on_finish = (fun ~now:_ _ -> ());
  }

(* Top-level recursion over the list, so notifying allocates no
   closure. *)
let rec decision obs ~now ~queue ~started ~waiting ~running =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_decision ~now ~queue ~started ~waiting ~running;
      decision rest ~now ~queue ~started ~waiting ~running

let rec start obs ~now j =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_start ~now j;
      start rest ~now j

let rec finish obs ~now j =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_finish ~now j;
      finish rest ~now j

let rec demand acc = function
  | [] -> acc
  | (j : Workload.Job.t) :: rest -> demand (acc + j.nodes) rest

(* Registered, and so exposed, from the histograms back to the decision
   counter: the order the OpenMetrics exposition has always had. *)
let instruments reg =
  let module M = Simcore.Metrics in
  let depth =
    M.histogram reg "schedsim_queue_depth"
      ~help:"waiting jobs per decision point"
  in
  let wait =
    M.histogram reg "schedsim_wait_seconds"
      ~help:"per-job wait at start, seconds"
  in
  let backlog =
    M.gauge reg "schedsim_backlog_nodes"
      ~help:"nodes demanded by waiting jobs after the last decision"
  in
  let busy =
    M.gauge reg "schedsim_busy_nodes" ~help:"busy nodes after the last decision"
  in
  let queue_jobs =
    M.gauge reg "schedsim_queue_jobs"
      ~help:"waiting jobs after the last decision"
  in
  let completed =
    M.counter reg "schedsim_jobs_completed" ~help:"jobs completed"
  in
  let started = M.counter reg "schedsim_jobs_started" ~help:"jobs started" in
  let decisions =
    M.counter reg "schedsim_decisions" ~help:"scheduling decision points"
  in
  {
    on_decision =
      (fun ~now:_ ~queue ~started:_ ~waiting ~running ->
        M.incr decisions;
        M.set queue_jobs queue;
        M.set busy (Cluster.Running_set.busy_nodes running);
        M.set backlog (demand 0 waiting);
        M.observe depth queue);
    on_start =
      (fun ~now (j : Workload.Job.t) ->
        M.incr started;
        M.observe wait (int_of_float (now -. j.submit)));
    on_finish = (fun ~now:_ _ -> M.incr completed);
  }
