(* Tests for Search_state and the LDS/DDS/DFS search algorithms. *)

open Core

let r_star (j : Workload.Job.t) = j.runtime

(* Build a search state over an empty or partially busy machine. *)
let make_state ?(now = 0.0) ?(capacity = 8) ?(releases = [])
    ?(bound = Bound.fixed_hours 1e6) ?backtrack ?on_place ~heuristic jobs =
  let profile = Cluster.Profile.of_running ~now ~capacity releases in
  let ordered = Branching.order heuristic ~now ~r_star jobs in
  let durations = Array.map r_star ordered in
  let thresholds = Bound.thresholds bound ~now ~r_star ordered in
  Search_state.create ?backtrack ?on_place ~now ~profile ~jobs:ordered
    ~durations ~thresholds ()

(* Brute force: evaluate every permutation with a fresh state. *)
let brute_force_best state =
  let n = Search_state.job_count state in
  let best = ref None in
  List.iter
    (fun path ->
      Search_state.reset state;
      List.iteri
        (fun depth job ->
          Search_state.place state ~depth ~job)
        path;
      let obj = Search_state.leaf_objective state in
      (match !best with
      | None -> best := Some obj
      | Some incumbent ->
          if Objective.is_better ~candidate:obj ~incumbent then
            best := Some obj);
      Search_state.reset state)
    (Tree_enum.all_paths Search.Dfs ~n);
  Option.get !best

(* --- Search_state unit tests --- *)

let test_place_semantics () =
  (* two 8-node jobs on an 8-node machine: second starts after first *)
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  Search_state.place state ~depth:0 ~job:0;
  let s0 = Search_state.start_at state ~depth:0 in
  Search_state.place state ~depth:1 ~job:1;
  let s1 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "first starts now" 0.0 s0;
  Alcotest.(check (float 1e-9)) "second queued behind" 100.0 s1;
  Alcotest.(check int) "two nodes visited" 2 (Search_state.nodes_visited state);
  let leaf = Search_state.leaf_objective state in
  Alcotest.(check int) "objective counts both" 2 leaf.Objective.jobs

let test_place_order_changes_starts () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  Search_state.place state ~depth:0 ~job:1;
  let s1 = Search_state.start_at state ~depth:0 in
  Search_state.place state ~depth:1 ~job:0;
  let s0 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "reversed: short first" 0.0 s1;
  Alcotest.(check (float 1e-9)) "long waits 50s" 50.0 s0

let test_backfill_within_path () =
  (* A later job on the path can still start now if it fits around the
     earlier placements (the paper's "order of consideration is not the
     order of starting"). *)
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 ();
      Helpers.job ~id:2 ~submit:2.0 ~nodes:8 ~runtime:10.0 () ]
  in
  let state =
    make_state ~capacity:16 ~heuristic:Branching.Fcfs jobs
  in
  Search_state.place state ~depth:0 ~job:0;
  Search_state.place state ~depth:1 ~job:1;
  Search_state.place state ~depth:2 ~job:2;
  let s2 = Search_state.start_at state ~depth:2 in
  (* jobs 0 and 1 fill 16 nodes in [0,50); job 2 must wait for the
     first release at t=50 *)
  Alcotest.(check (float 1e-9)) "third waits for hole" 50.0 s2

let test_unplace_restores () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:4 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:4 () ]
  in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  Search_state.place state ~depth:0 ~job:0;
  Search_state.place state ~depth:1 ~job:1;
  Search_state.unplace state ~depth:1;
  Alcotest.(check bool) "job 1 free again" false (Search_state.used state 1);
  Search_state.place state ~depth:1 ~job:1;
  let s1 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "same start on re-place" 0.0 s1

let test_nth_unused () =
  let jobs =
    List.init 3 (fun id -> Helpers.job ~id ~submit:(float_of_int id) ())
  in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  Search_state.place state ~depth:0 ~job:1;
  Alcotest.(check (option int)) "rank 0" (Some 0) (Search_state.nth_unused state 0);
  Alcotest.(check (option int)) "rank 1" (Some 2) (Search_state.nth_unused state 1);
  Alcotest.(check (option int)) "rank 2 exhausted" None
    (Search_state.nth_unused state 2)

let test_start_now_set () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  let result = Search.run Search.Dfs ~budget:max_int state in
  let started =
    Search_state.start_now_set state ~order:result.Search.best_order
      ~starts:result.Search.best_starts
  in
  Alcotest.(check int) "exactly one starts now" 1 (List.length started)

(* --- Search algorithm tests --- *)

let random_jobs rng n =
  List.init n (fun id ->
      Helpers.job ~id
        ~submit:(Simcore.Rng.float rng 1000.0)
        ~nodes:(1 + Simcore.Rng.int rng 8)
        ~runtime:(60.0 +. Simcore.Rng.float rng 10000.0)
        ())

let random_releases rng =
  List.init (Simcore.Rng.int rng 3) (fun _ ->
      (1200.0 +. Simcore.Rng.float rng 5000.0, 1 + Simcore.Rng.int rng 3))

let exhaustive_equals_bruteforce algo seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 2 + Simcore.Rng.int rng 4 in
  let jobs = random_jobs rng n in
  let releases = random_releases rng in
  let make () =
    make_state ~now:1100.0 ~releases ~bound:(Bound.fixed_hours 0.5)
      ~heuristic:Branching.Lxf jobs
  in
  let result = Search.run algo ~budget:max_int (make ()) in
  let brute = brute_force_best (make ()) in
  Objective.compare result.Search.best brute = 0 && result.Search.exhausted

let prop_dfs_optimal =
  QCheck.Test.make ~name:"exhaustive DFS = brute force" ~count:60
    QCheck.small_int
    (exhaustive_equals_bruteforce Search.Dfs)

let prop_lds_optimal =
  QCheck.Test.make ~name:"exhaustive LDS = brute force" ~count:60
    QCheck.small_int
    (exhaustive_equals_bruteforce Search.Lds)

let prop_dds_optimal =
  QCheck.Test.make ~name:"exhaustive DDS = brute force" ~count:60
    QCheck.small_int
    (exhaustive_equals_bruteforce Search.Dds)

let prop_lds_original_optimal =
  QCheck.Test.make ~name:"exhaustive original LDS = brute force" ~count:40
    QCheck.small_int
    (exhaustive_equals_bruteforce Search.Lds_original)

let prop_prune_preserves_best =
  QCheck.Test.make ~name:"branch-and-bound preserves the optimum" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let n = 2 + Simcore.Rng.int rng 4 in
      let jobs = random_jobs rng n in
      let make () =
        make_state ~now:1100.0 ~bound:(Bound.fixed_hours 0.5)
          ~heuristic:Branching.Lxf jobs
      in
      let plain = Search.run Search.Dds ~budget:max_int (make ()) in
      let pruned =
        Search.run ~prune:true Search.Dds ~budget:max_int (make ())
      in
      Objective.compare plain.Search.best pruned.Search.best = 0
      && pruned.Search.nodes_visited <= plain.Search.nodes_visited)

(* --- trail vs snapshot equivalence --- *)

(* Both backtracking strategies must be observationally identical: the
   same node sequence (depth, job, start triples, recorded through the
   [on_place] hook) and the same result record, for every algorithm
   and branching heuristic, exhaustive (n <= 5) or budget-truncated. *)
let run_instrumented ~algo ~heuristic ~backtrack ~budget ~releases jobs =
  let visits = ref [] in
  let state =
    make_state ~now:1100.0 ~releases ~bound:(Bound.fixed_hours 0.5) ~backtrack
      ~on_place:(fun ~depth ~job ~start ->
        visits := (depth, job, start) :: !visits)
      ~heuristic jobs
  in
  let result = Search.run algo ~budget state in
  (result, List.rev !visits)

let strategies_equivalent seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 1 + Simcore.Rng.int rng 12 in
  let jobs = random_jobs rng n in
  let releases = random_releases rng in
  let budget =
    if n <= 5 then max_int else 200 + Simcore.Rng.int rng 1800
  in
  List.for_all
    (fun algo ->
      List.for_all
        (fun heuristic ->
          let rt, vt =
            run_instrumented ~algo ~heuristic
              ~backtrack:Search_state.Trail ~budget ~releases jobs
          in
          let rs, vs =
            run_instrumented ~algo ~heuristic
              ~backtrack:Search_state.Snapshot ~budget ~releases jobs
          in
          vt = vs && rt = rs)
        [ Branching.Fcfs; Branching.Lxf ])
    [ Search.Dfs; Search.Lds; Search.Lds_original; Search.Dds ]

let prop_trail_snapshot_equivalent =
  QCheck.Test.make
    ~name:"trail = snapshot (4 algorithms x 2 heuristics, n <= 12)"
    ~count:40 QCheck.small_int strategies_equivalent

let test_reset_after_budget_spent () =
  (* A budget abort unwinds through Budget_spent and Search.run resets
     the state; reusing that state (with a cumulative budget, since the
     node counter survives reset) must behave exactly like a fresh
     one.  Regression: reset used to leave starts and partial
     objectives stale. *)
  let rng = Simcore.Rng.create ~seed:11 in
  let jobs = random_jobs rng 8 in
  let reused = make_state ~heuristic:Branching.Lxf jobs in
  let r1 = Search.run Search.Dds ~budget:100 reused in
  Alcotest.(check bool) "first run aborted" false r1.Search.exhausted;
  for depth = 0 to 7 do
    Alcotest.(check int) "chosen cleared" (-1)
      (Search_state.chosen reused ~depth);
    Alcotest.(check (float 1e-9)) "start cleared" 0.0
      (Search_state.start_at reused ~depth);
    let partial = Search_state.partial reused ~depth in
    Alcotest.(check (float 1e-9)) "partial excess cleared" 0.0
      partial.Objective.excess;
    Alcotest.(check (float 1e-9)) "partial secondary cleared" 0.0
      partial.Objective.secondary_sum
  done;
  Alcotest.(check int) "unused list rebuilt" 0 (Search_state.first_unused reused);
  let r2 = Search.run Search.Dds ~budget:200 reused in
  let control =
    Search.run Search.Dds ~budget:100 (make_state ~heuristic:Branching.Lxf jobs)
  in
  Alcotest.(check int) "same nodes as a fresh state" 200
    r2.Search.nodes_visited;
  Alcotest.(check int) "same leaves as a fresh state"
    control.Search.leaves_evaluated r2.Search.leaves_evaluated;
  Alcotest.(check bool) "same best order as a fresh state" true
    (r2.Search.best_order = control.Search.best_order);
  Alcotest.(check int) "same objective as a fresh state" 0
    (Objective.compare r2.Search.best control.Search.best)

let test_budget_enforced () =
  let rng = Simcore.Rng.create ~seed:3 in
  let jobs = random_jobs rng 7 in
  let state = make_state ~heuristic:Branching.Lxf jobs in
  let result = Search.run Search.Dds ~budget:50 state in
  Alcotest.(check bool) "stops at the budget" true
    (result.Search.nodes_visited <= 50);
  Alcotest.(check bool) "not exhausted" false result.Search.exhausted

let test_iteration0_exempt_from_budget () =
  let rng = Simcore.Rng.create ~seed:4 in
  let jobs = random_jobs rng 6 in
  let state = make_state ~heuristic:Branching.Fcfs jobs in
  (* budget smaller than one full path: the heuristic path must still
     be evaluated *)
  let result = Search.run Search.Dds ~budget:2 state in
  Alcotest.(check int) "heuristic path evaluated" 1
    result.Search.leaves_evaluated;
  Alcotest.(check int) "best order complete" 6
    (Array.length result.Search.best_order)

let test_exhausted_leaf_count () =
  let rng = Simcore.Rng.create ~seed:5 in
  let jobs = random_jobs rng 4 in
  List.iter
    (fun (algo, expected) ->
      let state = make_state ~heuristic:Branching.Fcfs jobs in
      let result = Search.run algo ~budget:max_int state in
      Alcotest.(check int)
        (Search.algorithm_name algo ^ " visits all leaves")
        expected result.Search.leaves_evaluated)
    [ (Search.Lds, 24); (Search.Dds, 24); (Search.Dfs, 25);
      (* original LDS revisits: 1 + (<=1: 7) + (<=2: 18) + (<=3: 24) *)
      (Search.Lds_original, 50) ]
(* DFS re-walks the iteration-0 heuristic path, hence 24 + 1. *)

let test_search_deterministic () =
  let rng = Simcore.Rng.create ~seed:6 in
  let jobs = random_jobs rng 8 in
  let run () =
    let state = make_state ~heuristic:Branching.Lxf jobs in
    Search.run Search.Dds ~budget:500 state
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same nodes" a.Search.nodes_visited b.Search.nodes_visited;
  Alcotest.(check int) "same leaves" a.Search.leaves_evaluated
    b.Search.leaves_evaluated;
  Alcotest.(check bool) "same best order" true
    (a.Search.best_order = b.Search.best_order);
  Alcotest.(check int) "same objective" 0
    (Objective.compare a.Search.best b.Search.best)

let test_empty_state_rejected () =
  let state = make_state ~heuristic:Branching.Fcfs [] in
  Alcotest.check_raises "no jobs" (Invalid_argument "Search.run: no waiting jobs")
    (fun () -> ignore (Search.run Search.Dds ~budget:10 state))

let test_dds_beats_lds_to_root_discrepancies () =
  (* With a tiny budget, DDS explores root discrepancies that LDS only
     reaches after exhausting deeper single discrepancies; build a case
     where the improvement hides behind a root discrepancy. *)
  let long = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:10000.0 () in
  let jobs =
    long
    :: List.init 5 (fun i ->
           Helpers.job ~id:(i + 1)
             ~submit:(float_of_int (i + 1))
             ~nodes:1 ~runtime:60.0 ())
  in
  let state () =
    make_state ~now:10.0 ~capacity:8 ~bound:(Bound.Fixed 0.0)
      ~heuristic:Branching.Fcfs jobs
  in
  (* budget: heuristic path (6) + one more path (<= 6 nodes) *)
  let dds = Search.run Search.Dds ~budget:13 (state ()) in
  let lds = Search.run Search.Lds ~budget:13 (state ()) in
  Alcotest.(check bool) "DDS at least as good under tiny budget" true
    (Objective.compare dds.Search.best lds.Search.best <= 0)

(* --- the split search equals the sequential one --- *)

(* Identical jobs whose submit times differ by far less than the
   objective's 1e-9 relative tolerance: many leaves tie under
   [Objective.close] without being equal, which is where a fold that
   merged per-slot winners instead of running over every leaf would
   pick a different incumbent ([is_better] is not transitive). *)
let near_tie_jobs rng n =
  let nodes = 1 + Simcore.Rng.int rng 8 in
  let runtime = 60.0 +. Simcore.Rng.float rng 5000.0 in
  List.init n (fun id ->
      Helpers.job ~id
        ~submit:(500.0 +. (1e-7 *. float_of_int (Simcore.Rng.int rng 4)))
        ~nodes ~runtime ())

let bits = Int64.bits_of_float

let same_result (a : Search.result) (b : Search.result) =
  bits a.best.excess = bits b.best.excess
  && bits a.best.secondary_sum = bits b.best.secondary_sum
  && a.best.jobs = b.best.jobs
  && a.best_order = b.best_order
  && Array.map bits a.best_starts = Array.map bits b.best_starts
  && a.nodes_visited = b.nodes_visited
  && a.leaves_evaluated = b.leaves_evaluated
  && a.iterations = b.iterations
  && a.exhausted = b.exhausted

(* Budgets at every kind of cut-off for [n] jobs: below one path, on
   and around the end of iteration 1 (n (n - 1) nodes), on the
   boundaries of iteration 2's depth-0 subtrees (1 + (n - 1) (n - 2)
   nodes each), inside a subtree, and (small trees) past the end. *)
let split_budgets rng n =
  let t1 = n * (n - 1) and sub2 = 1 + ((n - 1) * (n - 2)) in
  List.filter
    (fun b -> b >= 1)
    ([ 1; n - 1; n; n + 1; n + t1 - 1; n + t1; n + t1 + 1; n + t1 + sub2;
       n + t1 + (2 * sub2); n + t1 + (2 * sub2) + 1 + Simcore.Rng.int rng sub2;
       n + 1 + Simcore.Rng.int rng 2500 ]
    @ if n <= 6 then [ max_int ] else [])

let split_matches pools seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 2 + Simcore.Rng.int rng 11 in
  let jobs =
    if Simcore.Rng.int rng 3 = 0 then near_tie_jobs rng n
    else random_jobs rng n
  in
  let releases = random_releases rng in
  let make () =
    make_state ~now:1100.0 ~releases ~bound:(Bound.fixed_hours 0.5)
      ~heuristic:Branching.Lxf jobs
  in
  List.for_all
    (fun budget ->
      let probe = Simcore.Probe.create () in
      let state = make () in
      let sequential = Search.run ~probe Search.Dds ~budget state in
      List.for_all
        (fun pool ->
          let split_probe = Simcore.Probe.create () in
          let split_state = make () in
          let split =
            Search.run ~probe:split_probe ~pool Search.Dds ~budget split_state
          in
          same_result sequential split
          && probe = split_probe
          && Search_state.nodes_visited state
             = Search_state.nodes_visited split_state
          && Search_state.first_unused split_state = 0
          && List.for_all
               (fun depth -> Search_state.chosen split_state ~depth = -1)
               (List.init n Fun.id))
        pools)
    (split_budgets rng n)

let test_split_equals_sequential () =
  Simcore.Pool.with_pool ~jobs:1 (fun p1 ->
      Simcore.Pool.with_pool ~jobs:2 (fun p2 ->
          Simcore.Pool.with_pool ~jobs:3 (fun p3 ->
              QCheck.Test.check_exn
                (QCheck.Test.make
                   ~name:"split DDS = sequential DDS (widths 1-3, n <= 12)"
                   ~count:60 QCheck.small_int
                   (split_matches [ p1; p2; p3 ])))))

(* Everything the split must not touch runs the sequential kernel: the
   same result, and not one task posted to the pool (a traced pool
   records a span per task it fans out). *)
let test_split_ignored_where_sequential () =
  let rng = Simcore.Rng.create ~seed:21 in
  let jobs = random_jobs rng 7 in
  Simcore.Pool.with_pool ~jobs:2 (fun pool ->
      Simcore.Pool.set_tracing pool true;
      List.iter
        (fun (label, algo, prune, backtrack, hooked) ->
          let run pool =
            let on_place =
              if hooked then Some (fun ~depth:_ ~job:_ ~start:_ -> ())
              else None
            in
            let state =
              make_state ~backtrack ?on_place ~heuristic:Branching.Lxf jobs
            in
            Search.run ~prune ?pool algo ~budget:3000 state
          in
          let r0 = run None and r1 = run (Some pool) in
          Alcotest.(check bool) (label ^ ": same result") true
            (same_result r0 r1);
          Alcotest.(check int) (label ^ ": no task posted") 0
            (List.length (Simcore.Pool.spans pool)))
        [ ("dds +bnb", Search.Dds, true, Search_state.Trail, false);
          ("lds", Search.Lds, false, Search_state.Trail, false);
          ("lds0", Search.Lds_original, false, Search_state.Trail, false);
          ("dfs", Search.Dfs, false, Search_state.Trail, false);
          ("dds snapshot", Search.Dds, false, Search_state.Snapshot, false);
          ("dds on_place", Search.Dds, false, Search_state.Trail, true) ];
      (* and the plain DDS run does fan out *)
      ignore
        (Search.run ~pool Search.Dds ~budget:3000
           (make_state ~heuristic:Branching.Lxf jobs));
      Alcotest.(check bool) "dds: fans out" true
        (Simcore.Pool.spans pool <> []))

let test_split_nodes_closed_form () =
  (* n = 34: iteration 1 has 34 * 33 nodes, iteration 2 34 subtrees of
     1 + 32 * 33 *)
  Alcotest.(check int) "iteration 1" 1122
    (Search.split_nodes Search.Dds ~budget:(34 + 1122) 34);
  Alcotest.(check int) "capped by the budget" 8351
    (Search.split_nodes Search.Dds ~budget:8385 34);
  Alcotest.(check int) "iterations 1 and 2" (1122 + 35938)
    (Search.split_nodes Search.Dds ~budget:max_int 34
     |> min (1122 + 35938));
  Alcotest.(check int) "no room after the heuristic path" 0
    (Search.split_nodes Search.Dds ~budget:1 34);
  Alcotest.(check int) "branch-and-bound stays sequential" 0
    (Search.split_nodes ~prune:true Search.Dds ~budget:10_000 34);
  Alcotest.(check int) "LDS stays sequential" 0
    (Search.split_nodes Search.Lds ~budget:10_000 34);
  (* a whole small tree: DDS visits every node of the n! leaves' tree
     once beyond the heuristic path *)
  let state = make_state ~heuristic:Branching.Fcfs (random_jobs (Simcore.Rng.create ~seed:2) 5) in
  let r = Search.run Search.Dds ~budget:max_int state in
  Alcotest.(check int) "exhausted tree"
    (r.Search.nodes_visited - 5)
    (Search.split_nodes Search.Dds ~budget:max_int 5)

let suite =
  [
    Alcotest.test_case "place semantics" `Quick test_place_semantics;
    Alcotest.test_case "order changes starts" `Quick
      test_place_order_changes_starts;
    Alcotest.test_case "backfill within path" `Quick test_backfill_within_path;
    Alcotest.test_case "unplace restores" `Quick test_unplace_restores;
    Alcotest.test_case "nth_unused ranks" `Quick test_nth_unused;
    Alcotest.test_case "start_now_set" `Quick test_start_now_set;
    QCheck_alcotest.to_alcotest prop_dfs_optimal;
    QCheck_alcotest.to_alcotest prop_lds_optimal;
    QCheck_alcotest.to_alcotest prop_dds_optimal;
    QCheck_alcotest.to_alcotest prop_lds_original_optimal;
    QCheck_alcotest.to_alcotest prop_prune_preserves_best;
    QCheck_alcotest.to_alcotest prop_trail_snapshot_equivalent;
    Alcotest.test_case "reset after budget abort" `Quick
      test_reset_after_budget_spent;
    Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
    Alcotest.test_case "iteration 0 exempt" `Quick
      test_iteration0_exempt_from_budget;
    Alcotest.test_case "exhausted leaf counts" `Quick test_exhausted_leaf_count;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "empty state rejected" `Quick test_empty_state_rejected;
    Alcotest.test_case "DDS vs LDS under tiny budget" `Quick
      test_dds_beats_lds_to_root_discrepancies;
    Alcotest.test_case "split DDS = sequential DDS" `Quick
      test_split_equals_sequential;
    Alcotest.test_case "split skipped where sequential" `Quick
      test_split_ignored_where_sequential;
    Alcotest.test_case "split node counts closed form" `Quick
      test_split_nodes_closed_form;
  ]
