(* Simcore.Pool (domain work pool) and Simcore.Memo (compute-once
   promise table), including the cache-coherence stress test over
   Experiments.Common.simulate. *)

open Simcore

exception Boom of int

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs))

let test_map_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool
               ~f:(fun x -> if x mod 10 = 3 then raise (Boom x) else x)
               (List.init 50 Fun.id) : int list);
          None
        with Boom x -> Some x
      in
      (* lowest-index failure wins, deterministically *)
      Alcotest.(check (option int)) "first failing item" (Some 3) raised;
      (* the pool survives an exceptional batch *)
      Alcotest.(check (list int))
        "pool usable afterwards" [ 2; 4 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2 ]))

let test_jobs1_degenerate () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "no worker domain" 1 (Pool.jobs pool);
      let order = ref [] in
      Pool.iter pool ~f:(fun x -> order := x :: !order) [ 1; 2; 3; 4 ];
      (* sequential path: submission order, in the calling domain *)
      Alcotest.(check (list int)) "in-order execution" [ 1; 2; 3; 4 ]
        (List.rev !order))

let test_reuse_across_batches () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let a = Pool.map pool ~f:(fun x -> x + 1) (List.init 20 Fun.id) in
      let b = Pool.map pool ~f:(fun x -> x * 2) (List.init 30 Fun.id) in
      Alcotest.(check (list int)) "batch 1" (List.init 20 (fun i -> i + 1)) a;
      Alcotest.(check (list int)) "batch 2" (List.init 30 (fun i -> i * 2)) b);
  (* empty batches are fine too *)
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty batch" []
        (Pool.map pool ~f:Fun.id []))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Simcore.Pool: pool is shut down") (fun () ->
      ignore (Pool.map pool ~f:Fun.id [ 1 ] : int list))

(* A batch posted from inside one of the pool's tasks cannot wait for
   the pool (it would wait for itself): it runs inline, in order, on
   the posting runner's slot. *)
let test_nested_batch_inline () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let inner =
        Pool.map pool
          ~f:(fun k ->
            let order = ref [] in
            Pool.run pool 4 (fun who i -> order := (who, i) :: !order);
            (k, List.rev !order))
          [ 1; 2; 3; 4 ]
      in
      List.iter
        (fun (k, order) ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "task %d: inner batch inline, in order" k)
            [ (0, 0); (0, 1); (0, 2); (0, 3) ]
            order)
        inner)

(* A batch posted from another domain while a batch holds the pool
   runs inline in that domain instead of queueing. *)
let test_concurrent_batch_inline () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let inner = ref [] in
      Pool.run pool 1 (fun _ _ ->
          (* the outer batch is running until this task returns *)
          let other =
            Domain.spawn (fun () ->
                let order = ref [] in
                Pool.run pool 3 (fun who i -> order := (who, i) :: !order);
                List.rev !order)
          in
          inner := Domain.join other);
      Alcotest.(check (list (pair int int)))
        "inline, in order" [ (0, 0); (0, 1); (0, 2) ] !inner)

(* Domain ids are handed out in spawn order, so the id of a probe
   domain tells how many domains were spawned since the last probe. *)
let next_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_width1_spawns_nothing () =
  let before = next_domain_id () in
  Pool.with_pool ~jobs:1 (fun pool ->
      Pool.iter pool ~f:ignore [ 1; 2; 3 ];
      ignore (Pool.map pool ~f:Fun.id [ 4; 5 ] : int list));
  Alcotest.(check int) "no domain spawned by a width-1 pool" (before + 1)
    (next_domain_id ())

(* Experiments.Common's pool functions drive the one shared pool. *)
let test_common_drives_shared_pool () =
  let saved = Experiments.Common.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Experiments.Common.set_jobs saved;
      Experiments.Common.shutdown_pool ())
    (fun () ->
      Experiments.Common.set_jobs 3;
      Alcotest.(check int) "jobs" 3 (Experiments.Common.jobs ());
      Alcotest.(check int) "shared width" 3 (Pool.shared_jobs ());
      let p = Experiments.Common.pool () in
      Alcotest.(check bool) "same pool" true (p == Pool.shared ());
      Alcotest.(check int) "pool width" 3 (Pool.jobs p);
      Experiments.Common.shutdown_pool ();
      let q = Pool.shared () in
      Alcotest.(check bool) "recreated after shutdown" true (q != p);
      Experiments.Common.set_jobs 2;
      Alcotest.(check int) "resized" 2 (Pool.jobs (Experiments.Common.pool ())))

let test_memo_compute_once_concurrent () =
  let memo : (int, int) Memo.t = Memo.create () in
  let forcings = Atomic.make 0 in
  let compute key =
    Memo.get memo key (fun () ->
        Atomic.incr forcings;
        (* widen the race window so concurrent callers really overlap *)
        Unix.sleepf 0.02;
        key * 100)
  in
  Pool.with_pool ~jobs:8 (fun pool ->
      let requests = List.init 64 (fun i -> i mod 4) in
      let results = Pool.map pool ~f:compute requests in
      List.iter2
        (fun k v -> Alcotest.(check int) "value" (k * 100) v)
        requests results);
  Alcotest.(check int) "each key forced exactly once" 4
    (Atomic.get forcings);
  Alcotest.(check int) "table size" 4 (Memo.length memo);
  Memo.clear memo;
  Alcotest.(check int) "cleared" 0 (Memo.length memo)

let test_memo_failure_cached () =
  let memo : (string, int) Memo.t = Memo.create () in
  let forcings = Atomic.make 0 in
  let get () =
    Memo.get memo "k" (fun () ->
        Atomic.incr forcings;
        raise (Boom 7))
  in
  Alcotest.check_raises "first caller" (Boom 7) (fun () -> ignore (get ()));
  Alcotest.check_raises "second caller" (Boom 7) (fun () -> ignore (get ()));
  Alcotest.(check int) "thunk forced once" 1 (Atomic.get forcings)

(* The ISSUE's cache-coherence stress: from 8 domains, request the same
   and overlapping Common.simulate keys concurrently; each policy thunk
   must be forced exactly once and all callers must see the same run. *)
let test_common_simulate_stress () =
  let with_env bindings f =
    let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) bindings in
    List.iter (fun (k, v) -> Unix.putenv k v) bindings;
    Fun.protect f ~finally:(fun () ->
        List.iter
          (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
          saved)
  in
  with_env [ ("REPRO_SCALE", "0.05"); ("REPRO_MONTHS", "7/03") ] (fun () ->
      Experiments.Common.reset_caches ();
      let month = Workload.Month_profile.find "7/03" in
      let n_keys = 4 in
      let forcings = Array.init n_keys (fun _ -> Atomic.make 0) in
      let request k =
        Experiments.Common.simulate
          ~policy_key:(Printf.sprintf "stress-%d" k)
          ~policy:(fun () ->
            Atomic.incr forcings.(k);
            Sched.Policy.run_now)
          ~r_star:Sim.Engine.Actual month Experiments.Common.Original
      in
      let requests = List.init 64 (fun i -> i mod n_keys) in
      let runs =
        Pool.with_pool ~jobs:8 (fun pool -> Pool.map pool ~f:request requests)
      in
      Array.iteri
        (fun k c ->
          Alcotest.(check int)
            (Printf.sprintf "policy thunk %d forced exactly once" k)
            1 (Atomic.get c))
        forcings;
      (* all callers of one key observe the same Sim.Run.t *)
      let canonical = Array.make n_keys None in
      List.iter2
        (fun k run ->
          match canonical.(k) with
          | None -> canonical.(k) <- Some run
          | Some first ->
              Alcotest.(check bool)
                (Printf.sprintf "key %d: same run for every caller" k)
                true (run == first))
        requests runs;
      Experiments.Common.reset_caches ())

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map propagates exceptions" `Quick test_map_exception;
    Alcotest.test_case "jobs=1 degenerate path" `Quick test_jobs1_degenerate;
    Alcotest.test_case "reuse across batches" `Quick test_reuse_across_batches;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "memo compute-once under 8 domains" `Quick
      test_memo_compute_once_concurrent;
    Alcotest.test_case "memo failure cached" `Quick test_memo_failure_cached;
    Alcotest.test_case "Common.simulate coherence stress" `Quick
      test_common_simulate_stress;
    Alcotest.test_case "nested batch runs inline" `Quick
      test_nested_batch_inline;
    Alcotest.test_case "concurrent batch runs inline" `Quick
      test_concurrent_batch_inline;
    Alcotest.test_case "width 1 spawns no domain" `Quick
      test_width1_spawns_nothing;
    Alcotest.test_case "Common drives the shared pool" `Quick
      test_common_drives_shared_pool;
  ]
