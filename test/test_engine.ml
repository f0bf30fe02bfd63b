(* Tests for the event-driven simulation engine and Run wrapper. *)

let machine16 = Cluster.Machine.v ~nodes:16

let simulate ?(machine = machine16) ?(r_star = Sim.Engine.Actual) ~policy trace =
  Sim.Engine.run ~machine ~r_star ~policy trace

let test_every_job_runs_once () =
  let trace = Helpers.mini_trace ~seed:1 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  let ids =
    List.sort Int.compare
      (List.map
         (fun (o : Metrics.Outcome.t) -> o.job.Workload.Job.id)
         result.Sim.Engine.outcomes)
  in
  Alcotest.(check (list int)) "all jobs completed exactly once"
    (List.init (Workload.Trace.length trace) Fun.id)
    ids

let test_no_oversubscription () =
  (* replay outcomes and verify instantaneous node usage never exceeds
     the machine *)
  let trace = Helpers.mini_trace ~seed:2 ~n:60 () in
  List.iter
    (fun policy ->
      let result = simulate ~policy trace in
      let events =
        List.concat_map
          (fun (o : Metrics.Outcome.t) ->
            [ (o.start, o.job.Workload.Job.nodes);
              (o.finish, -o.job.Workload.Job.nodes) ])
          result.Sim.Engine.outcomes
        |> List.sort (fun (ta, da) (tb, db) ->
               let c = Float.compare ta tb in
               if c <> 0 then c else Int.compare da db)
      in
      let peak = ref 0 and current = ref 0 in
      List.iter
        (fun (_, delta) ->
          current := !current + delta;
          peak := max !peak !current)
        events;
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ " never oversubscribes")
        true (!peak <= 16))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Policy.run_now;
      fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget:200)) ]

let test_jobs_start_after_submit () =
  let trace = Helpers.mini_trace ~seed:3 () in
  let result = simulate ~policy:Sched.Backfill.lxf trace in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      Alcotest.(check bool) "start >= submit" true
        (o.start >= o.job.Workload.Job.submit);
      Alcotest.(check (float 1e-6)) "runs for min(T,R)"
        (Float.min o.job.Workload.Job.runtime o.job.Workload.Job.requested)
        (o.finish -. o.start))
    result.Sim.Engine.outcomes

let test_requested_runtime_kills () =
  (* a job whose requested limit is below its runtime is cut short *)
  let job = Workload.Job.v ~id:0 ~submit:0.0 ~nodes:1 ~runtime:100.0
      ~requested:100.0
  in
  (* simulate via SWF-style trace where requested < runtime is possible:
     construct directly through Engine with min() semantics *)
  let trace = Workload.Trace.v [ job ] in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  match result.Sim.Engine.outcomes with
  | [ o ] -> Alcotest.(check (float 1e-9)) "runs full time" 100.0
               (o.Metrics.Outcome.finish -. o.Metrics.Outcome.start)
  | _ -> Alcotest.fail "expected one outcome"

let test_fcfs_backfill_vs_run_now_head_wait () =
  (* under FCFS-backfill the queue head's start is never later than the
     no-reservation greedy policy would allow... the head gets the
     earliest possible start; sanity: simulation completes and waits
     are finite *)
  let trace = Helpers.mini_trace ~seed:4 ~n:80 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  Alcotest.(check int) "all outcomes" 80 (List.length result.Sim.Engine.outcomes)

let test_decisions_counted () =
  let trace = Helpers.mini_trace ~seed:5 ~n:10 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  (* at least one decision per arrival and per finish *)
  Alcotest.(check bool) "decision count plausible" true
    (result.Sim.Engine.decisions >= 10
    && result.Sim.Engine.decisions <= 2 * 10)

let test_too_wide_job_rejected () =
  let job = Helpers.job ~nodes:128 () in
  let trace = Workload.Trace.v [ job ] in
  Alcotest.check_raises "job wider than machine"
    (Invalid_argument "Engine.run: job 0 wider than machine") (fun () ->
      ignore (simulate ~policy:Sched.Backfill.fcfs trace))

(* A policy that starts [pick ctx] at every decision. *)
let starting pick = Sched.Policy.make ~name:"test" ~decide:pick

let test_non_waiting_start_rejected () =
  let early = Helpers.job ~id:0 ~submit:0.0 () in
  let late = Helpers.job ~id:1 ~submit:100.0 () in
  let trace = Workload.Trace.v [ early; late ] in
  Alcotest.check_raises "not yet arrived"
    (Invalid_argument "Engine.run: policy started non-waiting job 1")
    (fun () -> ignore (simulate ~policy:(starting (fun _ -> [ late ])) trace));
  Alcotest.check_raises "started twice in one decision"
    (Invalid_argument "Engine.run: policy started non-waiting job 0")
    (fun () ->
      ignore
        (simulate
           ~policy:
             (starting (fun ctx ->
                  match ctx.Sched.Policy.waiting with
                  | j :: _ -> [ j; j ]
                  | [] -> []))
           trace))

(* The engine's queue against a naive model: every decision sees
   exactly the arrived, unstarted jobs in submit order, and observers
   see its length after the starts. *)
let test_waiting_queue_bookkeeping () =
  let trace = Helpers.mini_trace ~seed:8 ~n:60 () in
  let jobs = Array.to_list (Workload.Trace.jobs trace) in
  let ids = List.map (fun (j : Workload.Job.t) -> j.id) in
  List.iter
    (fun (inner : Sched.Policy.t) ->
      let started = Hashtbl.create 64 in
      let expected now =
        List.filter
          (fun (j : Workload.Job.t) ->
            j.submit <= now +. 1e-9 && not (Hashtbl.mem started j.id))
          jobs
      in
      let decide (ctx : Sched.Policy.context) =
        Alcotest.(check (list int)) "waiting = arrived minus started"
          (ids (expected ctx.now)) (ids ctx.waiting);
        let s = inner.decide ctx in
        List.iter (fun (j : Workload.Job.t) -> Hashtbl.replace started j.id ()) s;
        s
      in
      let observer =
        { Sim.Observer.none with
          on_decision =
            (fun ~now ~queue ~started:_ ~waiting ~running:_ ->
              Alcotest.(check (list int)) "observer sees the queue after starts"
                (ids (expected now)) (ids waiting);
              Alcotest.(check int) "queue length" (List.length waiting) queue) }
      in
      ignore
        (Sim.Engine.run ~machine:machine16 ~observers:[ observer ]
           ~r_star:Sim.Engine.Actual
           ~policy:{ inner with decide }
           trace))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Policy.run_now ]

(* The integral of a step function given as (time, value) samples in
   time order, each value held until the next sample, over [from_, upto). *)
let step_integral samples ~from_ ~upto =
  let held t0 t1 q =
    Float.max 0.0 (Float.min upto t1 -. Float.max from_ t0) *. float_of_int q
  in
  let rec go acc = function
    | (t0, q) :: ((t1, _) :: _ as rest) -> go (acc +. held t0 t1 q) rest
    | [ (t0, q) ] -> acc +. held t0 upto q
    | [] -> acc
  in
  go 0.0 samples

(* A window's average queue length, counted two independent ways: each
   job's wait [submit, start) clipped to the window (Little's identity),
   and the queue length after each decision held until the next one.
   The window closes long before the last decision, so the decisions
   after it must add nothing. *)
let test_queue_average_exact () =
  let jobs = Workload.Trace.jobs (Helpers.mini_trace ~seed:6 ~n:40 ()) in
  let from_ = 1000.0 and upto = 4000.0 in
  let trace =
    Workload.Trace.v (Array.to_list jobs) ~measure_start:from_
      ~measure_end:upto
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs trace
  in
  let samples = ref [] in
  let observer =
    {
      Sim.Observer.none with
      on_decision =
        (fun ~now ~queue ~started:_ ~waiting:_ ~running:_ ->
          samples := (now, queue) :: !samples);
    }
  in
  ignore
    (Sim.Engine.run ~machine:machine16 ~observers:[ observer ]
       ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.fcfs trace);
  let samples = List.rev !samples in
  Alcotest.(check bool) "decisions after the window" true
    (List.exists (fun (t, _) -> t > upto +. 1800.0) samples);
  let waits ~from_ ~upto =
    Array.fold_left
      (fun acc (j : Workload.Job.t) ->
        let o =
          List.find
            (fun (o : Metrics.Outcome.t) -> o.job.id = j.id)
            run.Sim.Run.outcomes
        in
        acc +. Float.max 0.0 (Float.min upto o.start -. Float.max from_ j.submit))
      0.0 jobs
  in
  let check label ~from_ ~upto got =
    let window = upto -. from_ in
    Alcotest.(check (float 1e-9))
      (label ^ ": waits over the window")
      (waits ~from_ ~upto /. window) got;
    Alcotest.(check (float 1e-9))
      (label ^ ": the engine's step function")
      (step_integral samples ~from_ ~upto /. window)
      got
  in
  Alcotest.(check bool) "some queue in the window" true
    (run.Sim.Run.aggregate.Metrics.Aggregate.avg_queue_length > 0.0);
  check "measurement window" ~from_ ~upto
    run.Sim.Run.aggregate.Metrics.Aggregate.avg_queue_length;
  check "sub-window" ~from_:2000.0 ~upto:3000.0
    (Sim.Run.queue_average run ~from_:2000.0 ~upto:3000.0);
  Alcotest.(check (float 0.0)) "empty window" 0.0
    (Sim.Run.queue_average run ~from_:3000.0 ~upto:3000.0)

let test_run_wrapper_windows () =
  let trace = Helpers.mini_trace ~seed:6 ~n:40 ~horizon:7200.0 () in
  let jobs = Workload.Trace.jobs trace in
  let windowed =
    Workload.Trace.v (Array.to_list jobs) ~measure_start:1000.0
      ~measure_end:5000.0
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs windowed
  in
  let expected =
    Array.to_list jobs
    |> List.filter (fun (j : Workload.Job.t) ->
           j.submit >= 1000.0 && j.submit < 5000.0)
    |> List.length
  in
  Alcotest.(check int) "only in-window jobs measured" expected
    (List.length run.Sim.Run.measured);
  Alcotest.(check int) "aggregate over measured" expected
    run.Sim.Run.aggregate.Metrics.Aggregate.n_jobs

let test_utilization_bounds () =
  let trace = Helpers.mini_trace ~seed:9 ~n:50 () in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs trace
  in
  Alcotest.(check bool) "utilization in [0,1]" true
    (run.Sim.Run.utilization >= 0.0 && run.Sim.Run.utilization <= 1.0);
  Alcotest.(check bool) "some work happened" true
    (run.Sim.Run.utilization > 0.0)

let test_utilization_exact () =
  (* one 8-node, 50s job on a 16-node machine over a 100s window:
     utilization = 8*50 / (16*100) = 0.25 *)
  let job = Helpers.job ~id:0 ~nodes:8 ~runtime:50.0 () in
  let trace =
    Workload.Trace.v [ job ] ~measure_start:0.0 ~measure_end:100.0
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs trace
  in
  Alcotest.(check (float 1e-9)) "exact utilization" 0.25
    run.Sim.Run.utilization

let test_deterministic_simulation () =
  let trace = Helpers.mini_trace ~seed:7 () in
  let a = simulate ~policy:Sched.Backfill.lxf trace in
  let b = simulate ~policy:Sched.Backfill.lxf trace in
  List.iter2
    (fun (x : Metrics.Outcome.t) (y : Metrics.Outcome.t) ->
      Alcotest.(check (float 1e-12)) "same starts" x.start y.start)
    a.Sim.Engine.outcomes b.Sim.Engine.outcomes

let test_rstar_requested_changes_schedule () =
  (* with heavily overestimated requests, LXF-backfill decisions change *)
  let trace = Helpers.mini_trace ~seed:8 ~n:60 () in
  let actual = simulate ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.lxf trace in
  let requested =
    simulate ~r_star:Sim.Engine.Requested ~policy:Sched.Backfill.lxf trace
  in
  let starts r =
    List.map (fun (o : Metrics.Outcome.t) -> o.start) r.Sim.Engine.outcomes
  in
  Alcotest.(check bool) "schedules differ" true
    (starts actual <> starts requested)

let suite =
  [
    Alcotest.test_case "every job runs once" `Quick test_every_job_runs_once;
    Alcotest.test_case "no oversubscription" `Quick test_no_oversubscription;
    Alcotest.test_case "starts after submit; runs min(T,R)" `Quick
      test_jobs_start_after_submit;
    Alcotest.test_case "requested runtime respected" `Quick
      test_requested_runtime_kills;
    Alcotest.test_case "fcfs completes a backlog" `Quick
      test_fcfs_backfill_vs_run_now_head_wait;
    Alcotest.test_case "decisions counted" `Quick test_decisions_counted;
    Alcotest.test_case "too-wide job rejected" `Quick test_too_wide_job_rejected;
    Alcotest.test_case "non-waiting start rejected" `Quick
      test_non_waiting_start_rejected;
    Alcotest.test_case "waiting queue bookkeeping" `Quick
      test_waiting_queue_bookkeeping;
    Alcotest.test_case "windowed queue average" `Quick
      test_queue_average_exact;
    Alcotest.test_case "run wrapper windows" `Quick test_run_wrapper_windows;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "utilization exact" `Quick test_utilization_exact;
    Alcotest.test_case "deterministic simulation" `Quick
      test_deterministic_simulation;
    Alcotest.test_case "R*=R changes schedule" `Quick
      test_rstar_requested_changes_schedule;
  ]
