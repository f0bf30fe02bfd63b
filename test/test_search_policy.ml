(* Tests for the search-based scheduling policy wrapper and the
   local-search extension. *)

open Core

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let running = Cluster.Running_set.create ~machine in
  { Sched.Policy.now; waiting; running; r_star }

let test_names () =
  Alcotest.(check string) "headline policy name" "DDS/lxf/dynB(L=1K)"
    (Search_policy.name (Search_policy.dds_lxf_dynb ~budget:1000));
  let lds =
    Search_policy.v ~algorithm:Search.Lds ~heuristic:Branching.Fcfs
      ~bound:(Bound.fixed_hours 50.0) ~budget:2000 ()
  in
  Alcotest.(check string) "lds fixed-bound name" "LDS/fcfs/w=50h(L=2K)"
    (Search_policy.name lds);
  let pruned = { (Search_policy.dds_lxf_dynb ~budget:500) with
                 Search_policy.prune = true }
  in
  Alcotest.(check string) "bnb suffix" "DDS/lxf/dynB(L=500)+bnb"
    (Search_policy.name pruned);
  let wait_goal =
    { (Search_policy.dds_lxf_dynb ~budget:1000) with
      Search_policy.goal = Objective.Avg_wait }
  in
  Alcotest.(check string) "goal suffix" "DDS/lxf/dynB(L=1K)@goal=avgW"
    (Search_policy.name wait_goal)

let test_invalid_budget () =
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Search_policy.v: budget must be >= 1") (fun () ->
      ignore
        (Search_policy.v ~algorithm:Search.Dds ~heuristic:Branching.Lxf
           ~bound:Bound.dynamic ~budget:0 ()))

let test_empty_queue () =
  let policy, stats = Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100) in
  let started = policy.Sched.Policy.decide (context ~waiting:[] ()) in
  Alcotest.(check int) "nothing to start" 0 (List.length started);
  Alcotest.(check int) "no decision recorded" 0 (stats ()).Search_policy.decisions

let test_starts_fitting_jobs () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:8 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 () ]
  in
  let policy, stats =
    Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100)
  in
  let started = policy.Sched.Policy.decide (context ~waiting ()) in
  Alcotest.(check int) "both fit and start" 2 (List.length started);
  let s = stats () in
  Alcotest.(check int) "one decision" 1 s.Search_policy.decisions;
  Alcotest.(check bool) "nodes counted" true (s.Search_policy.total_nodes >= 2);
  Alcotest.(check int) "queue length recorded" 2 s.Search_policy.max_queue

let test_decide_detailed () =
  let waiting = [ Helpers.job ~id:0 ~nodes:4 () ] in
  match
    Search_policy.decide_detailed
      (Search_policy.dds_lxf_dynb ~budget:100)
      (context ~waiting ())
  with
  | None -> Alcotest.fail "expected a result"
  | Some result ->
      Alcotest.(check bool) "single-job tree exhausted" true
        result.Search.exhausted;
      Alcotest.(check int) "one leaf" 1 result.Search.leaves_evaluated

let test_decide_detailed_empty () =
  Alcotest.(check bool) "no result on empty queue" true
    (Search_policy.decide_detailed
       (Search_policy.dds_lxf_dynb ~budget:100)
       (context ~waiting:[] ())
    = None)

(* Local search must never worsen the incumbent and must leave the
   state clean. *)
let prop_local_search_never_worse =
  QCheck.Test.make ~name:"local search never worsens the schedule" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let n = 3 + Simcore.Rng.int rng 5 in
      let jobs =
        List.init n (fun id ->
            Helpers.job ~id
              ~submit:(Simcore.Rng.float rng 500.0)
              ~nodes:(1 + Simcore.Rng.int rng 8)
              ~runtime:(60.0 +. Simcore.Rng.float rng 5000.0)
              ())
      in
      let profile = Cluster.Profile.create ~now:600.0 ~capacity:8 in
      let ordered =
        Branching.order Branching.Lxf ~now:600.0 ~r_star jobs
      in
      let durations = Array.map r_star ordered in
      let thresholds =
        Bound.thresholds (Bound.fixed_hours 0.1) ~now:600.0 ~r_star ordered
      in
      let state =
        Search_state.create ~now:600.0 ~profile ~jobs:ordered ~durations
          ~thresholds ()
      in
      let base = Search.run Search.Dds ~budget:(2 * n) state in
      let improved = Local_search.improve ~budget:1000 state base in
      Objective.compare improved.Search.best base.Search.best <= 0
      && Array.length improved.Search.best_order = n
      && not (List.exists (fun i -> Search_state.used state i)
                (List.init n Fun.id)))

let test_local_search_finds_swap () =
  (* heuristic order deliberately bad: big job first starves the rest;
     swapping improves the first-level objective *)
  let jobs =
    [ Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:10000.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:1 ~runtime:60.0 () ]
  in
  let profile = Cluster.Profile.create ~now:10.0 ~capacity:8 in
  let ordered = Branching.order Branching.Fcfs ~now:10.0 ~r_star jobs in
  let durations = Array.map r_star ordered in
  let thresholds = Bound.thresholds (Bound.Fixed 0.0) ~now:10.0 ~r_star ordered in
  let state =
    Search_state.create ~now:10.0 ~profile ~jobs:ordered ~durations ~thresholds
      ()
  in
  (* budget 2 = only the heuristic path gets evaluated *)
  let base = Search.run Search.Dds ~budget:2 state in
  let improved = Local_search.improve ~budget:100 state base in
  Alcotest.(check bool) "swap improves excess" true
    (improved.Search.best.Objective.excess < base.Search.best.Objective.excess)

(* --- the shared pool --- *)

let with_shared_jobs jobs f =
  let saved = Simcore.Pool.shared_jobs () in
  Fun.protect
    ~finally:(fun () ->
      Simcore.Pool.set_shared_jobs saved;
      Simcore.Pool.shutdown_shared ())
    (fun () ->
      Simcore.Pool.set_shared_jobs jobs;
      f ())

let simulate_mini ~budget =
  let trace = Helpers.mini_trace ~n:120 ~capacity:16 ~horizon:3600.0 ~seed:5 () in
  let policy = fst (Search_policy.policy (Search_policy.dds_lxf_dynb ~budget)) in
  Sim.Engine.run ~machine:(Cluster.Machine.v ~nodes:16) ~r_star:Sim.Engine.Actual
    ~policy trace

(* A policy whose decisions split across a 2-wide shared pool schedules
   exactly as one that searches on a single domain. *)
let test_split_policy_equals_sequential () =
  let sequential = with_shared_jobs 1 (fun () -> simulate_mini ~budget:5000) in
  let split, spans =
    with_shared_jobs 2 (fun () ->
        Simcore.Pool.set_tracing (Simcore.Pool.shared ()) true;
        let r = simulate_mini ~budget:5000 in
        (r, List.length (Simcore.Pool.spans (Simcore.Pool.shared ()))))
  in
  Alcotest.(check bool) "some decisions split" true (spans > 0);
  Alcotest.(check int) "same decisions" sequential.Sim.Engine.decisions
    split.Sim.Engine.decisions;
  Alcotest.(check bool) "same outcomes" true
    (sequential.Sim.Engine.outcomes = split.Sim.Engine.outcomes)

let next_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

(* A budget of 1 never has nodes to share out: the policy never asks for
   the shared pool, which is therefore never created. *)
let test_budget_one_spawns_nothing () =
  with_shared_jobs 2 (fun () ->
      Simcore.Pool.shutdown_shared ();
      let before = next_domain_id () in
      ignore (simulate_mini ~budget:1 : Sim.Engine.result);
      Alcotest.(check int) "no domain spawned" (before + 1) (next_domain_id ()))

let suite =
  [
    Alcotest.test_case "policy names" `Quick test_names;
    Alcotest.test_case "invalid budget" `Quick test_invalid_budget;
    Alcotest.test_case "empty queue" `Quick test_empty_queue;
    Alcotest.test_case "starts fitting jobs" `Quick test_starts_fitting_jobs;
    Alcotest.test_case "decide_detailed" `Quick test_decide_detailed;
    Alcotest.test_case "decide_detailed empty" `Quick test_decide_detailed_empty;
    QCheck_alcotest.to_alcotest prop_local_search_never_worse;
    Alcotest.test_case "local search finds a swap" `Quick
      test_local_search_finds_swap;
    Alcotest.test_case "split policy = sequential policy" `Quick
      test_split_policy_equals_sequential;
    Alcotest.test_case "budget of one spawns no domain" `Quick
      test_budget_one_spawns_nothing;
  ]
