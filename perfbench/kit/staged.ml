type t = {
  profile_of : Samples.t;
  branching : Samples.t;
  thresholds : Samples.t;
  state_create : Samples.t;
  search : Samples.t;
  plan : Samples.t;
  mutable segments : int;
  mutable searched : int;
  mutable nodes : int;
  mutable leaves : int;
  mutable exhausted : int;
}

let create () =
  {
    profile_of = Samples.create ();
    branching = Samples.create ();
    thresholds = Samples.create ();
    state_create = Samples.create ();
    search = Samples.create ();
    plan = Samples.create ();
    segments = 0;
    searched = 0;
    nodes = 0;
    leaves = 0;
    exhausted = 0;
  }

let clock = Simcore.Clock.monotonic_s

let dds t (config : Core.Search_policy.config) =
  if config.local_search || config.fairshare <> None then
    invalid_arg "Staged.dds: local search and fairshare are not staged";
  let decide (ctx : Sched.Policy.context) =
    match ctx.waiting with
    | [] -> []
    | waiting ->
        let now = ctx.now and r_star = ctx.r_star in
        let t0 = clock () in
        let profile = Sched.Policy.profile_of ctx in
        let t1 = clock () in
        let jobs = Core.Branching.order config.heuristic ~now ~r_star waiting in
        let t2 = clock () in
        let durations = Array.map r_star jobs in
        let thresholds = Core.Bound.thresholds config.bound ~now ~r_star jobs in
        let t3 = clock () in
        let state =
          Core.Search_state.create ~secondary:config.goal ~now ~profile ~jobs
            ~durations ~thresholds ()
        in
        let t4 = clock () in
        let result =
          Core.Search.run ~prune:config.prune config.algorithm
            ~budget:config.budget state
        in
        let t5 = clock () in
        Samples.add t.profile_of (t1 -. t0);
        Samples.add t.branching (t2 -. t1);
        Samples.add t.thresholds (t3 -. t2);
        Samples.add t.state_create (t4 -. t3);
        Samples.add t.search (t5 -. t4);
        t.segments <- t.segments + Cluster.Profile.segment_count profile;
        t.searched <- t.searched + 1;
        t.nodes <- t.nodes + result.Core.Search.nodes_visited;
        t.leaves <- t.leaves + result.Core.Search.leaves_evaluated;
        if result.Core.Search.exhausted then t.exhausted <- t.exhausted + 1;
        Core.Search_state.start_now_set state
          ~order:result.Core.Search.best_order
          ~starts:result.Core.Search.best_starts
  in
  Sched.Policy.make ~name:(Core.Search_policy.name config) ~decide

let backfill t priority =
  let policy = Sched.Backfill.policy priority in
  let decide ctx =
    let t0 = clock () in
    let plan = Sched.Backfill.plan ~reservations:1 ~priority ctx in
    Samples.add t.plan (clock () -. t0);
    plan.Sched.Backfill.start_now
  in
  { policy with Sched.Policy.decide }
