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

(* The search instruments, filled from the policy's probe after each
   decision that searched. *)
let search_instruments reg (probe : Simcore.Probe.t) =
  let module M = Simcore.Metrics in
  let decisions =
    M.counter reg "schedsim_search_decisions"
      ~help:"decision points at which the tree search ran"
  in
  let nodes =
    M.counter reg "schedsim_search_nodes"
      ~help:"search nodes visited across all decisions"
  in
  let leaves =
    M.counter reg "schedsim_search_leaves"
      ~help:"complete schedules evaluated across all decisions"
  in
  let exhausted =
    M.counter reg "schedsim_search_exhausted"
      ~help:"decisions whose whole tree fit in the node budget"
  in
  let improvements =
    M.counter reg "schedsim_search_improvements"
      ~help:"incumbent improvements across all decisions"
  in
  let nodes_per_decision =
    M.histogram reg "schedsim_search_nodes_per_decision"
      ~help:"search nodes visited per decision point"
  in
  fun () ->
    M.incr decisions;
    M.add nodes probe.nodes;
    M.add leaves probe.leaves;
    if probe.exhausted then M.incr exhausted;
    M.add improvements probe.improvements;
    M.observe nodes_per_decision probe.nodes

(* Registered, and so exposed, from the histograms back to the decision
   counter, then the search instruments: the order the OpenMetrics
   exposition has always had. *)
let instruments ?probe reg =
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
  let search = Option.map (search_instruments reg) probe in
  {
    on_decision =
      (fun ~now:_ ~queue ~started:n ~waiting ~running ->
        M.incr decisions;
        M.set queue_jobs queue;
        M.set busy (Cluster.Running_set.busy_nodes running);
        M.set backlog (demand 0 waiting);
        M.observe depth queue;
        match search with
        | Some record when queue + n > 0 -> record ()
        | _ -> ());
    on_start =
      (fun ~now (j : Workload.Job.t) ->
        M.incr started;
        M.observe wait (int_of_float (now -. j.submit)));
    on_finish = (fun ~now:_ _ -> M.incr completed);
  }
