(* The benchmark's traced runs swap each library policy for its staged
   rebuild (Perfbench_kit.Staged).  That is only sound if the staged
   pipeline starts exactly the jobs the library policy starts, at every
   decision; these tests check it on one month at scale 0.1. *)

module Staged = Perfbench_kit.Staged
module Schedule = Perfbench_kit.Schedule

let trace =
  lazy
    (let config =
       { Workload.Generator.default_config with seed = 42; scale = 0.1 }
     in
     Workload.Trace.scale_load
       (Workload.Generator.month ~config (Workload.Month_profile.find "1/04"))
       ~capacity:Workload.Month_profile.capacity ~target:0.9)

(* Every decision as (time, ids started), plus the schedule digest. *)
let decisions ~r_star (policy : Sched.Policy.t) =
  let log = ref [] in
  let decide (ctx : Sched.Policy.context) =
    let started = policy.decide ctx in
    log :=
      (ctx.now, List.map (fun (j : Workload.Job.t) -> j.id) started) :: !log;
    started
  in
  let result =
    Sim.Engine.run ~r_star ~policy:{ policy with decide } (Lazy.force trace)
  in
  (List.rev !log, Schedule.digest result.Sim.Engine.outcomes)

let same_starts ~r_star ~library ~staged () =
  let expected, expected_digest = decisions ~r_star library in
  let got, digest = decisions ~r_star staged in
  Alcotest.(check string) "policy name" library.Sched.Policy.name
    staged.Sched.Policy.name;
  Alcotest.(check int) "decisions" (List.length expected) (List.length got);
  List.iter2
    (fun (t, ids) (t', ids') ->
      Alcotest.(check (float 0.0)) "decision time" t t';
      Alcotest.(check (list int)) (Printf.sprintf "started at %.0f" t) ids ids')
    expected got;
  Alcotest.(check string) "schedule digest" expected_digest digest

let dds r_star () =
  let config = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let stages = Staged.create () in
  same_starts ~r_star
    ~library:(fst (Core.Search_policy.policy config))
    ~staged:(Staged.dds stages config) ();
  Alcotest.(check bool) "searched" true (stages.searched > 0);
  Alcotest.(check int) "one search sample per searched decision"
    stages.searched
    (Perfbench_kit.Samples.count stages.search);
  Alcotest.(check bool) "nodes counted" true (stages.nodes >= stages.searched)

let backfill r_star priority () =
  let stages = Staged.create () in
  same_starts ~r_star
    ~library:(Sched.Backfill.policy priority)
    ~staged:(Staged.backfill stages priority) ();
  Alcotest.(check bool) "plans timed" true
    (Perfbench_kit.Samples.count stages.plan > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "staged",
        [
          Alcotest.test_case "DDS/lxf/dynB pipeline, R*=T" `Quick
            (dds Sim.Engine.Actual);
          Alcotest.test_case "DDS/lxf/dynB pipeline, R*=R" `Quick
            (dds Sim.Engine.Requested);
          Alcotest.test_case "Backfill.plan = FCFS-backfill, R*=T" `Quick
            (backfill Sim.Engine.Actual Sched.Priority.fcfs);
          Alcotest.test_case "Backfill.plan = LXF-backfill, R*=R" `Quick
            (backfill Sim.Engine.Requested Sched.Priority.lxf);
        ] );
    ]
