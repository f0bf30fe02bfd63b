type config = {
  algorithm : Search.algorithm;
  heuristic : Branching.t;
  bound : Bound.t;
  budget : int;
  prune : bool;
  local_search : bool;
  fairshare : float option;
  goal : Objective.secondary;
}

let v ?(prune = false) ?(local_search = false) ?fairshare
    ?(goal = Objective.Bounded_slowdown) ~algorithm ~heuristic ~bound ~budget
    () =
  if budget < 1 then invalid_arg "Search_policy.v: budget must be >= 1";
  { algorithm; heuristic; bound; budget; prune; local_search; fairshare; goal }

let dds_lxf_dynb ~budget =
  v ~algorithm:Search.Dds ~heuristic:Branching.Lxf ~bound:Bound.dynamic
    ~budget ()

let pp_budget budget =
  if budget mod 1000 = 0 then Printf.sprintf "%dK" (budget / 1000)
  else string_of_int budget

let name config =
  Printf.sprintf "%s/%s/%s(L=%s)%s%s%s%s"
    (String.uppercase_ascii (Search.algorithm_name config.algorithm))
    (Branching.name config.heuristic)
    (Bound.name config.bound) (pp_budget config.budget)
    (if config.prune then "+bnb" else "")
    (if config.local_search then "+ls" else "")
    (match config.fairshare with
    | None -> ""
    | Some penalty -> Printf.sprintf "+fair(%g)" penalty)
    (match config.goal with
    | Objective.Bounded_slowdown -> ""
    | Objective.Avg_wait -> "@goal=avgW")

type stats = {
  decisions : int;
  total_nodes : int;
  total_leaves : int;
  max_queue : int;
}

let state_of ?usage config (ctx : Sched.Policy.context) =
  let profile = Sched.Policy.profile_of ctx in
  let jobs =
    Branching.order config.heuristic ~now:ctx.now ~r_star:ctx.r_star
      ctx.waiting
  in
  let durations = Array.map ctx.r_star jobs in
  let thresholds =
    Bound.thresholds config.bound ~now:ctx.now ~r_star:ctx.r_star jobs
  in
  (match (config.fairshare, usage) with
  | Some penalty, Some tracker ->
      Array.iteri
        (fun i (j : Workload.Job.t) ->
          thresholds.(i) <-
            thresholds.(i)
            *. Fairshare.threshold_factor tracker ~now:ctx.now ~penalty
                 j.user)
        jobs
  | _ -> ());
  Search_state.create ~secondary:config.goal ~now:ctx.now ~profile ~jobs
    ~durations ~thresholds ()

let search ?probe config state =
  let result = Search.run ~prune:config.prune ?probe config.algorithm
      ~budget:config.budget state
  in
  if config.local_search then
    Local_search.improve ~budget:(config.budget / 4) state result
  else result

let decide_detailed config ctx =
  match ctx.Sched.Policy.waiting with
  | [] -> None
  | _ :: _ -> Some (search config (state_of config ctx))

let policy config =
  let decisions = ref 0 in
  let total_nodes = ref 0 in
  let total_leaves = ref 0 in
  let max_queue = ref 0 in
  (* One preallocated probe per policy instance, overwritten at every
     decision; the engine's decision log snapshots it after [decide]. *)
  let probe = Simcore.Probe.create () in
  (* Policy-owned metric registry (the Sched.Policy metric hook).
     Created disabled, so recording below is a load+branch until a
     reporting surface enables it. *)
  let metrics = Simcore.Metrics.create () in
  let m_decisions =
    Simcore.Metrics.counter metrics "schedsim_search_decisions"
      ~help:"decision points at which the tree search ran"
  in
  let m_nodes =
    Simcore.Metrics.counter metrics "schedsim_search_nodes"
      ~help:"search nodes visited across all decisions"
  in
  let m_leaves =
    Simcore.Metrics.counter metrics "schedsim_search_leaves"
      ~help:"complete schedules evaluated across all decisions"
  in
  let m_exhausted =
    Simcore.Metrics.counter metrics "schedsim_search_exhausted"
      ~help:"decisions whose whole tree fit in the node budget"
  in
  let m_improvements =
    Simcore.Metrics.counter metrics "schedsim_search_improvements"
      ~help:"incumbent improvements across all decisions"
  in
  let m_nodes_per_decision =
    Simcore.Metrics.histogram metrics "schedsim_search_nodes_per_decision"
      ~help:"search nodes visited per decision point"
  in
  let usage =
    match config.fairshare with
    | None -> None
    | Some _ -> Some (Fairshare.create ())
  in
  let decide (ctx : Sched.Policy.context) =
    match ctx.waiting with
    | [] ->
        (* leave no stale effort behind for the decision log *)
        Simcore.Probe.reset probe;
        []
    | _ :: _ ->
        let state = state_of ?usage config ctx in
        let result = search ~probe config state in
        incr decisions;
        total_nodes := !total_nodes + result.Search.nodes_visited;
        total_leaves := !total_leaves + result.Search.leaves_evaluated;
        max_queue := Stdlib.max !max_queue (Search_state.job_count state);
        Simcore.Metrics.incr m_decisions;
        Simcore.Metrics.add m_nodes result.Search.nodes_visited;
        Simcore.Metrics.add m_leaves result.Search.leaves_evaluated;
        if result.Search.exhausted then Simcore.Metrics.incr m_exhausted;
        Simcore.Metrics.add m_improvements probe.Simcore.Probe.improvements;
        Simcore.Metrics.observe m_nodes_per_decision
          result.Search.nodes_visited;
        let started =
          Search_state.start_now_set state ~order:result.Search.best_order
            ~starts:result.Search.best_starts
        in
        (match usage with
        | None -> ()
        | Some tracker ->
            List.iter
              (fun (j : Workload.Job.t) ->
                Fairshare.record_start tracker ~now:ctx.now ~nodes:j.nodes
                  ~duration:(ctx.r_star j) ~user:j.user)
              started);
        started
  in
  let stats () =
    {
      decisions = !decisions;
      total_nodes = !total_nodes;
      total_leaves = !total_leaves;
      max_queue = !max_queue;
    }
  in
  ( { (Sched.Policy.make ~name:(name config) ~decide) with
      probe = Some probe;
      metrics = Some metrics },
    stats )
