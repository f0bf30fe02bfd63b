(* Tests for Core.Objective and Core.Bound. *)

open Core

let test_zero () =
  Alcotest.(check int) "no jobs" 0 Objective.zero.Objective.jobs;
  Alcotest.(check (float 1e-9)) "avg slowdown empty" 0.0
    (Objective.avg_slowdown Objective.zero)

let test_add () =
  let o =
    Objective.add Objective.zero ~wait:7200.0 ~threshold:3600.0
      ~est_runtime:3600.0
  in
  Alcotest.(check (float 1e-9)) "excess" 3600.0 o.Objective.excess;
  Alcotest.(check (float 1e-9)) "slowdown" 3.0 o.Objective.secondary_sum;
  let o2 = Objective.add o ~wait:0.0 ~threshold:3600.0 ~est_runtime:3600.0 in
  Alcotest.(check (float 1e-9)) "excess unchanged" 3600.0 o2.Objective.excess;
  Alcotest.(check (float 1e-9)) "avg slowdown" 2.0 (Objective.avg_slowdown o2)

let test_add_short_job_floor () =
  let o =
    Objective.add Objective.zero ~wait:120.0 ~threshold:1e9 ~est_runtime:10.0
  in
  (* one-minute floor: 1 + 120/60 = 3 *)
  Alcotest.(check (float 1e-9)) "floored slowdown" 3.0 o.Objective.secondary_sum

let test_hierarchical_compare () =
  let mk excess slowdown =
    { Objective.excess; secondary_sum = slowdown; jobs = 2 }
  in
  (* lower excess wins regardless of slowdown *)
  Alcotest.(check bool) "excess dominates" true
    (Objective.is_better ~candidate:(mk 10.0 100.0) ~incumbent:(mk 20.0 2.0));
  (* equal excess: slowdown breaks the tie *)
  Alcotest.(check bool) "slowdown tie-break" true
    (Objective.is_better ~candidate:(mk 10.0 5.0) ~incumbent:(mk 10.0 6.0));
  Alcotest.(check int) "equal values" 0
    (Objective.compare (mk 10.0 5.0) (mk 10.0 5.0));
  (* float-noise-sized excess difference must not override slowdown *)
  Alcotest.(check bool) "tolerant to excess noise" true
    (Objective.is_better
       ~candidate:(mk (10.0 +. 1e-12) 5.0)
       ~incumbent:(mk 10.0 6.0))

let test_secondary_avg_wait () =
  let o =
    Objective.add ~secondary:Objective.Avg_wait Objective.zero ~wait:7200.0
      ~threshold:1e9 ~est_runtime:3600.0
  in
  Alcotest.(check (float 1e-9)) "wait accumulated raw" 7200.0
    o.Objective.secondary_sum;
  Alcotest.(check string) "names" "avgW"
    (Objective.secondary_name Objective.Avg_wait);
  Alcotest.(check (float 1e-9)) "min contribution slowdown" 1.0
    (Objective.min_contribution Objective.Bounded_slowdown);
  Alcotest.(check (float 1e-9)) "min contribution wait" 0.0
    (Objective.min_contribution Objective.Avg_wait)

let test_bound_fixed () =
  let jobs = [| Helpers.job ~id:0 (); Helpers.job ~id:1 ~submit:5.0 () |] in
  let ths =
    Bound.thresholds (Bound.fixed_hours 50.0) ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      jobs
  in
  Array.iter
    (fun t ->
      Alcotest.(check (float 1e-9)) "fixed bound" (50.0 *. 3600.0) t)
    ths

let test_bound_dynamic () =
  let jobs =
    [| Helpers.job ~id:0 ~submit:10.0 (); Helpers.job ~id:1 ~submit:40.0 () |]
  in
  let ths =
    Bound.thresholds Bound.dynamic ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      jobs
  in
  (* longest current wait = 100 - 10 = 90, applied to every job *)
  Array.iter
    (fun t -> Alcotest.(check (float 1e-9)) "dynamic bound" 90.0 t)
    ths

let test_bound_dynamic_empty_queue () =
  let ths =
    Bound.thresholds Bound.dynamic ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      [||]
  in
  Alcotest.(check int) "no thresholds" 0 (Array.length ths)

let test_bound_runtime_scaled () =
  let jobs =
    [| Helpers.job ~id:0 ~runtime:60.0 (); Helpers.job ~id:1 ~runtime:36000.0 () |]
  in
  let b = Bound.Runtime_scaled { floor = 3600.0; factor = 2.0 } in
  let ths =
    Bound.thresholds b ~now:0.0 ~r_star:(fun j -> j.Workload.Job.runtime) jobs
  in
  Alcotest.(check (float 1e-9)) "floor applies" 3600.0 ths.(0);
  Alcotest.(check (float 1e-9)) "factor applies" 72000.0 ths.(1)

let test_bound_names () =
  Alcotest.(check string) "dynB" "dynB" (Bound.name Bound.dynamic);
  Alcotest.(check string) "fixed" "w=50h" (Bound.name (Bound.fixed_hours 50.0))

let prop_add_monotone =
  QCheck.Test.make ~name:"objective components are monotone" ~count:300
    QCheck.(triple (float_bound_inclusive 1e6) (float_bound_inclusive 1e6)
              (float_bound_exclusive 1e5))
    (fun (wait, threshold, runtime) ->
      let runtime = runtime +. 1.0 in
      let base =
        { Objective.excess = 5.0; secondary_sum = 7.0; jobs = 3 }
      in
      let o = Objective.add base ~wait ~threshold ~est_runtime:runtime in
      o.Objective.excess >= base.Objective.excess
      && o.Objective.secondary_sum >= base.Objective.secondary_sum +. 1.0
      && o.Objective.jobs = 4)

(* The search's per-leaf test must agree with [is_better] everywhere,
   near-ties under the 1e-9 relative tolerance included: pairs are
   drawn as a base value plus perturbations from exactly equal through
   the tolerance's edge to clearly apart. *)
let prop_is_better_unboxed =
  let component =
    QCheck.(
      map
        (fun (base, k, e) -> (base, base *. (1.0 +. (float_of_int k *. e))))
        (triple (float_range 0.0 1e7) (int_range (-3) 3)
           (oneofl [ 0.0; 1e-12; 5e-10; 1e-9; 2e-9; 1e-6; 0.1 ])))
  in
  QCheck.Test.make ~name:"is_better_unboxed = is_better" ~count:2000
    QCheck.(triple component component (int_range 1 60))
    (fun ((e1, e2), (s1, s2), jobs) ->
      let candidate = { Objective.excess = e1; secondary_sum = s1; jobs } in
      let incumbent = { Objective.excess = e2; secondary_sum = s2; jobs } in
      Objective.is_better ~candidate ~incumbent
      = Objective.is_better_unboxed ~jobs ~excess:e1 ~secondary_sum:s1
          ~than_excess:e2 ~than_secondary_sum:s2)

let suite =
  [
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "short-job floor" `Quick test_add_short_job_floor;
    Alcotest.test_case "hierarchical compare" `Quick test_hierarchical_compare;
    Alcotest.test_case "secondary = avg wait" `Quick test_secondary_avg_wait;
    Alcotest.test_case "fixed bound" `Quick test_bound_fixed;
    Alcotest.test_case "dynamic bound" `Quick test_bound_dynamic;
    Alcotest.test_case "dynamic bound, empty queue" `Quick
      test_bound_dynamic_empty_queue;
    Alcotest.test_case "runtime-scaled bound" `Quick test_bound_runtime_scaled;
    Alcotest.test_case "bound names" `Quick test_bound_names;
    QCheck_alcotest.to_alcotest prop_add_monotone;
    QCheck_alcotest.to_alcotest prop_is_better_unboxed;
  ]
