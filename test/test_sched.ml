(* Tests for the priority functions and backfill schedulers. *)

open Sched

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting ~running () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let rs = Cluster.Running_set.create ~machine in
  List.iter
    (fun (id, nodes, start, runtime) ->
      let job = Helpers.job ~id ~nodes ~runtime ~submit:(Float.max 0.0 start) () in
      Cluster.Running_set.add rs
        {
          Cluster.Running_set.job;
          start;
          finish = start +. runtime;
          est_finish = start +. runtime;
        })
    running;
  { Policy.now; waiting; running = rs; r_star }

(* --- Priority --- *)

(* [a] goes strictly before [b]: given in the other order, [order]
   swaps them. *)
let precedes (p : Priority.t) ~now a b =
  match Priority.order p ~now ~r_star [ b; a ] with
  | [| x; y |] -> x == a && y == b
  | _ -> false

let test_fcfs_priority () =
  let a = Helpers.job ~id:0 ~submit:10.0 () in
  let b = Helpers.job ~id:1 ~submit:5.0 () in
  Alcotest.(check bool) "earlier first" true
    (precedes Priority.fcfs ~now:20.0 b a)

let test_sjf_priority () =
  let short = Helpers.job ~id:0 ~runtime:60.0 () in
  let long = Helpers.job ~id:1 ~runtime:3600.0 () in
  Alcotest.(check bool) "short first" true
    (precedes Priority.sjf ~now:0.0 short long)

let test_lxf_priority () =
  (* same wait, shorter job has larger expansion factor *)
  let short = Helpers.job ~id:0 ~submit:0.0 ~runtime:600.0 () in
  let long = Helpers.job ~id:1 ~submit:0.0 ~runtime:36000.0 () in
  Alcotest.(check bool) "larger xf first" true
    (precedes Priority.lxf ~now:3600.0 short long)

let test_expansion_factor () =
  let j = Helpers.job ~submit:0.0 ~runtime:3600.0 () in
  Alcotest.(check (float 1e-9)) "xf after one hour wait" 2.0
    (Priority.expansion_factor ~now:3600.0 ~r_star j);
  let tiny = Helpers.job ~submit:0.0 ~runtime:1.0 () in
  (* the one-minute floor keeps very short jobs from exploding *)
  Alcotest.(check (float 1e-9)) "floored xf" 61.0
    (Priority.expansion_factor ~now:3600.0 ~r_star tiny)

let test_lxf_w_prefers_waiters () =
  let p = Priority.lxf_w ~weight_per_hour:100.0 in
  let waited = Helpers.job ~id:0 ~submit:0.0 ~runtime:36000.0 () in
  let fresh = Helpers.job ~id:1 ~submit:35000.0 ~runtime:600.0 () in
  (* plain lxf prefers the fresh short job; a big wait weight flips it *)
  Alcotest.(check bool) "lxf prefers fresh short job" true
    (precedes Priority.lxf ~now:36000.0 fresh waited);
  Alcotest.(check bool) "lxf&w prefers the long waiter" true
    (precedes p ~now:36000.0 waited fresh)

(* The pairwise comparators [Priority] had before it scored each job
   once: the reference that [Priority.order] must reproduce exactly. *)
module Pairwise = struct
  let tie_break = Workload.Job.compare_submit

  let expansion_factor ~now ~r_star (j : Workload.Job.t) =
    let wait = Float.max 0.0 (now -. j.submit) in
    let runtime = Float.max (r_star j) Simcore.Units.minute in
    1.0 +. (wait /. runtime)

  let fcfs ~now:_ ~r_star:_ a b = tie_break a b

  let sjf ~now:_ ~r_star a b =
    let c = Float.compare (r_star a) (r_star b) in
    if c <> 0 then c else tie_break a b

  let lxf ~now ~r_star a b =
    let c =
      Float.compare
        (expansion_factor ~now ~r_star b)
        (expansion_factor ~now ~r_star a)
    in
    if c <> 0 then c else tie_break a b

  let lxf_w ~weight_per_hour ~now ~r_star a b =
    let score j =
      let wait_hours =
        Simcore.Units.to_hours (Float.max 0.0 (now -. j.Workload.Job.submit))
      in
      expansion_factor ~now ~r_star j +. (weight_per_hour *. wait_hours)
    in
    let c = Float.compare (score b) (score a) in
    if c <> 0 then c else tie_break a b
end

(* Random queues with forced ties: a quarter of them draw submit times
   and runtimes from tiny pools (duplicate submits, equal runtimes and
   so equal expansion factors and keys under different ids), some jobs
   arrive after [now] (wait clamped to zero), and the list comes in
   submit, LXF or random order.  Lengths start at 0 and 1. *)
let random_queue rng =
  let n =
    match Simcore.Rng.int rng 5 with
    | 0 -> Simcore.Rng.int rng 2
    | _ -> Simcore.Rng.int rng 40
  in
  let tied = Simcore.Rng.int rng 4 = 0 in
  let now = 36000.0 in
  let jobs =
    List.init n (fun id ->
        let submit =
          if tied then float_of_int (Simcore.Rng.int rng 3) *. 7200.0
          else Simcore.Rng.float rng 40000.0
        in
        let runtime =
          if tied then float_of_int (1 + Simcore.Rng.int rng 2) *. 1800.0
          else 1.0 +. Simcore.Rng.float rng 20000.0
        in
        Helpers.job ~id ~submit ~runtime ())
  in
  let order =
    match Simcore.Rng.int rng 3 with
    | 0 ->
        (* already sorted: the linear-check path for fcfs and lxf *)
        List.stable_sort Workload.Job.compare_submit jobs
    | 1 -> List.stable_sort (Pairwise.lxf ~now ~r_star) jobs
    | _ ->
        List.map (fun j -> (Simcore.Rng.int rng 1_000_000, j)) jobs
        |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
  in
  (now, order)

let prop_order_matches_pairwise =
  QCheck.Test.make
    ~name:"Priority.order = stable sort by the pairwise comparators"
    ~count:500 QCheck.small_int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let now, queue = random_queue rng in
      let ids l = List.map (fun (j : Workload.Job.t) -> j.id) l in
      List.for_all
        (fun ((p : Priority.t), pairwise) ->
          ids (Array.to_list (Priority.order p ~now ~r_star queue))
          = ids (List.stable_sort (pairwise ~now ~r_star) queue))
        [
          (Priority.fcfs, Pairwise.fcfs);
          (Priority.sjf, Pairwise.sjf);
          (Priority.lxf, Pairwise.lxf);
          ( Priority.lxf_w ~weight_per_hour:0.5,
            Pairwise.lxf_w ~weight_per_hour:0.5 );
        ])

(* Linear in n: any per-comparison boxing would be n log n. *)
let test_order_allocation () =
  List.iter
    (fun n ->
      let rng = Simcore.Rng.create ~seed:n in
      let queue =
        List.init n (fun id ->
            Helpers.job ~id
              ~submit:(Simcore.Rng.float rng 36000.0)
              ~runtime:(60.0 +. Simcore.Rng.float rng 36000.0)
              ())
      in
      let before = Gc.minor_words () in
      let ordered = Priority.order Priority.lxf ~now:36000.0 ~r_star queue in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "all jobs" n (Array.length ordered);
      if words > float_of_int ((10 * n) + 64) then
        Alcotest.failf "n=%d: %.0f minor words > 10n + 64" n words)
    [ 10; 100; 1000 ]

(* --- Backfill --- *)

let test_backfill_starts_what_fits () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:8 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 () ]
  in
  let ctx = context ~now:10.0 ~waiting ~running:[] () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "both start" [ 0; 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_reserves_blocked_head () =
  (* 12 busy of 16 until t=100; head needs 8 -> reservation at 100 *)
  let waiting = [ Helpers.job ~id:0 ~nodes:8 () ] in
  let ctx =
    context ~now:0.0 ~waiting ~running:[ (99, 12, -50.0, 150.0) ] ()
  in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check int) "nothing starts" 0 (List.length plan.Backfill.start_now);
  match plan.Backfill.reserved with
  | [ (j, at) ] ->
      Alcotest.(check int) "head reserved" 0 j.Workload.Job.id;
      Alcotest.(check (float 1e-6)) "at release time" 100.0 at
  | _ -> Alcotest.fail "expected exactly one reservation"

let test_backfill_respects_reservation () =
  (* Head job (8 nodes) reserved at t=100.  A 4-node backfill candidate
     fits now only if it finishes by t=100 (4 free now). *)
  let running = [ (99, 12, -50.0, 150.0) ] in
  let head = Helpers.job ~id:0 ~nodes:8 () in
  let short = Helpers.job ~id:1 ~submit:1.0 ~nodes:4 ~runtime:50.0 () in
  let long = Helpers.job ~id:2 ~submit:2.0 ~nodes:4 ~runtime:500.0 () in
  let ctx = context ~now:0.0 ~waiting:[ head; short; long ] ~running () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "only the harmless job backfills" [ 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_long_backfill_behind_reservation () =
  (* The long 4-node job CAN backfill if the reservation leaves slack:
     head needs 8, release at t=100 frees 12, so 4 nodes stay free
     through the reservation. *)
  let running = [ (99, 12, -50.0, 150.0) ] in
  let head = Helpers.job ~id:0 ~nodes:8 () in
  let long = Helpers.job ~id:2 ~submit:2.0 ~nodes:4 ~runtime:500.0 () in
  let ctx = context ~now:0.0 ~waiting:[ head; long ] ~running () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "long job backfills into slack" [ 2 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_priority_order_matters () =
  (* 8 free; two 8-node jobs; LXF should pick the one with larger xf *)
  let old_long = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:36000.0 () in
  let new_short = Helpers.job ~id:1 ~submit:3500.0 ~nodes:8 ~runtime:60.0 () in
  let ctx =
    context ~now:3600.0 ~waiting:[ old_long; new_short ]
      ~running:[ (99, 8, 0.0, 100000.0) ] ()
  in
  let fcfs_plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  let lxf_plan = Backfill.plan ~reservations:1 ~priority:Priority.lxf ctx in
  Alcotest.(check (list int)) "fcfs starts the older" [ 0 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) fcfs_plan.Backfill.start_now);
  Alcotest.(check (list int)) "lxf starts the larger-xf job" [ 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) lxf_plan.Backfill.start_now)

let test_policy_names () =
  Alcotest.(check string) "fcfs name" "FCFS-backfill"
    Backfill.fcfs.Policy.name;
  Alcotest.(check string) "lxf name" "LXF-backfill" Backfill.lxf.Policy.name;
  Alcotest.(check bool) "conservative name" true
    (Helpers.contains (Conservative.policy ()).Policy.name "conservative")

let test_run_now_policy () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:12 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ();
      Helpers.job ~id:2 ~submit:2.0 ~nodes:4 () ]
  in
  let ctx = context ~now:10.0 ~waiting ~running:[] () in
  let started = Policy.run_now.Policy.decide ctx in
  Alcotest.(check (list int)) "greedy fill skips too-wide" [ 0; 2 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) started)

(* Property: backfilled jobs never delay the highest-priority waiting
   job beyond its reservation. *)
let prop_backfill_preserves_reservation =
  QCheck.Test.make ~name:"backfill never delays the reservation" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let capacity = 16 in
      let running =
        List.init 3 (fun i ->
            (90 + i, 1 + Simcore.Rng.int rng 4, 0.0,
             60.0 +. Simcore.Rng.float rng 1000.0))
      in
      let waiting =
        List.init 8 (fun id ->
            Helpers.job ~id ~submit:(Simcore.Rng.float rng 50.0)
              ~nodes:(1 + Simcore.Rng.int rng capacity)
              ~runtime:(60.0 +. Simcore.Rng.float rng 2000.0)
              ())
      in
      let ctx = context ~now:60.0 ~capacity ~waiting ~running () in
      let head =
        List.hd (List.sort Workload.Job.compare_submit ctx.Policy.waiting)
      in
      let without_backfill =
        (* reservation computed with no other waiting jobs *)
        Backfill.plan ~reservations:1 ~priority:Priority.fcfs
          { ctx with Policy.waiting = [ head ] }
      in
      let full = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
      match (without_backfill.Backfill.reserved, full.Backfill.reserved) with
      | [ (_, t0) ], [ (_, t1) ] -> t1 <= t0 +. 1e-6
      | [], _ -> true (* head started immediately: nothing to preserve *)
      | _ -> true)

let suite =
  [
    Alcotest.test_case "fcfs priority" `Quick test_fcfs_priority;
    Alcotest.test_case "sjf priority" `Quick test_sjf_priority;
    Alcotest.test_case "lxf priority" `Quick test_lxf_priority;
    Alcotest.test_case "expansion factor" `Quick test_expansion_factor;
    Alcotest.test_case "lxf&w weights waiters" `Quick test_lxf_w_prefers_waiters;
    QCheck_alcotest.to_alcotest prop_order_matches_pairwise;
    Alcotest.test_case "order allocates linearly" `Quick test_order_allocation;
    Alcotest.test_case "backfill starts what fits" `Quick
      test_backfill_starts_what_fits;
    Alcotest.test_case "backfill reserves blocked head" `Quick
      test_backfill_reserves_blocked_head;
    Alcotest.test_case "backfill respects reservation" `Quick
      test_backfill_respects_reservation;
    Alcotest.test_case "backfill uses reservation slack" `Quick
      test_backfill_long_backfill_behind_reservation;
    Alcotest.test_case "priority order matters" `Quick
      test_backfill_priority_order_matters;
    Alcotest.test_case "policy names" `Quick test_policy_names;
    Alcotest.test_case "run-now policy" `Quick test_run_now_policy;
    QCheck_alcotest.to_alcotest prop_backfill_preserves_reservation;
  ]
