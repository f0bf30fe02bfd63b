(* Reproduction bench harness.

   Regenerates every table and figure of the paper (Sections 2-6), then
   the ablation studies.  Knobs (environment variables):

     REPRO_SCALE   workload scale (default 1.0 = full months)
     REPRO_MONTHS  comma-separated subset of month labels
     REPRO_SEED    generator seed (default 42)
     REPRO_MAXL    cap on the Figure 6 budget sweep
     REPRO_ONLY    comma-separated experiment ids to run
     REPRO_JOBS    width of the process's domain pool, which runs
                   experiments and splits large DDS searches
                   (default: recommended_domain_count; also -j N)

   Validation (rides along with the tables):

     --validate           validate every schedule the experiments
                          simulate (Schedcheck: machine-level
                          invariants, differential EASY backfill
                          replay); print an aggregate summary and
                          exit 1 on any violation

   Tracing (rides along with the tables):

     --trace[=path]       record a per-decision event log for every
                          simulation the experiments run and write it
                          as JSONL (default bench.trace.jsonl), plus a
                          Chrome trace_event view (<base>.chrome.json,
                          simulated-time axis, deterministic) and the
                          domain-pool worker spans
                          (<base>.pool.json, wall-clock, NOT
                          deterministic)

   Run-health reports (rides along with the tables):

     --report[=dir]       sample a run-health series for every
                          simulation the experiments run and write
                          self-contained HTML report pages (one per
                          month/load/estimator cell, overlaying its
                          policies) plus a cross-policy index.html and
                          the raw series JSONL (run_series/1) into dir
                          (default bench-report); deterministic for
                          any REPRO_JOBS

   Progress (stderr only, outside the byte-identical stdout):

     --progress           print a [k/n] experiment heartbeat with
                          per-experiment wall time and an ETA; also on
                          by default when stderr is a TTY

   Perf regression modes (instead of the tables; release builds only,
   any other profile exits 2):

     --perf-json [path]   measure DDS/lxf search throughput (nodes/ms)
                          on the synthetic decision point over a grid
                          of node budgets and queue depths, trail and
                          snapshot backtracking, and write it as JSON
                          (default BENCH_search_hotpath.json)
     --perf-smoke [path]  re-measure the L=8000 / 30-job point (median
                          of 5 warm trials) and fail (exit 1) if it, or
                          its trail/snapshot ratio, regressed more than
                          30% below the committed baseline JSON, or if
                          place/unplace, a DDS run (per node) or a
                          split search's helper domain allocates *)

let selected () =
  match Sys.getenv_opt "REPRO_ONLY" with
  | None | Some "" -> Experiments.Registry.all
  | Some csv ->
      String.split_on_char ',' csv
      |> List.map String.trim
      |> List.filter_map Experiments.Registry.find

(* Wall-clock heartbeat on stderr: on with --progress or when stderr
   is a TTY; never touches the byte-identical stdout stream. *)
let run_experiments ~progress fmt =
  let progress =
    progress || (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)
  in
  Format.fprintf fmt
    "Search-based Job Scheduling for Parallel Computer Workloads@.";
  Format.fprintf fmt
    "Reproduction harness (Vasupongayya, Chiang & Massey, Cluster 2005)@.";
  Format.fprintf fmt "scale=%g seed=%d jobs=%d months=%s@."
    (Experiments.Common.scale ())
    (Experiments.Common.seed ())
    (Experiments.Common.jobs ())
    (String.concat ","
       (List.map
          (fun m -> m.Workload.Month_profile.label)
          (Experiments.Common.months ())));
  let exps = selected () in
  let n = List.length exps in
  let t_start = Simcore.Clock.monotonic_s () in
  List.iteri
    (fun i e ->
      if progress then
        Printf.eprintf "[%d/%d] %s ...\n%!" (i + 1) n e.Experiments.Registry.id;
      let t0 = Simcore.Clock.monotonic_s () in
      (* One failing experiment must not kill the whole regeneration;
         the exception text is deterministic. *)
      (try e.Experiments.Registry.run fmt
       with exn ->
         Format.fprintf fmt "@.[%s FAILED: %s]@." e.Experiments.Registry.id
           (Printexc.to_string exn));
      let now = Simcore.Clock.monotonic_s () in
      Format.fprintf fmt "[%s done in %.1fs]@." e.Experiments.Registry.id
        (now -. t0);
      if progress then
        Printf.eprintf "[%d/%d] %s done in %.1fs, ETA %.0fs\n%!" (i + 1) n
          e.Experiments.Registry.id (now -. t0)
          ((now -. t_start) /. float_of_int (i + 1) *. float_of_int (n - i - 1)))
    exps

(* ------------------------------------------------------------------ *)
(* Search hot path on the synthetic decision point                     *)

(* Timings are taken only from release builds, where the committed
   baseline was recorded; a dev build would compare unlike with like. *)
let require_release () =
  if Build_profile.name <> "release" then begin
    Printf.eprintf
      "main.exe: hot-path timings need a release build, not %s; run \
       dune build --profile release @perf-smoke\n"
      Build_profile.name;
    exit 2
  end

let perf_budgets = [ 1000; 8000; 100000 ]
let perf_queue_depths = [ 10; 30; 60 ]

let grid_key ~prefix ~budget ~n = Printf.sprintf "%s_l%d_n%d" prefix budget n

let smoke_key = grid_key ~prefix:"trail" ~budget:8000 ~n:30

(* Warm up code paths and the branch predictor before measuring. *)
let warm_up () =
  ignore (Experiments.Overhead.nodes_per_ms ~repeats:5 ~budget:8000 ())

let perf_json path =
  warm_up ();
  let trail =
    List.concat_map
      (fun budget ->
        List.map
          (fun n ->
            ( grid_key ~prefix:"trail" ~budget ~n,
              Experiments.Overhead.nodes_per_ms ~n_waiting:n ~repeats:20
                ~budget () ))
          perf_queue_depths)
      perf_budgets
  in
  (* the snapshot oracle only at the headline point: it exists for
     equivalence testing, not speed *)
  let snapshot =
    ( grid_key ~prefix:"snapshot" ~budget:8000 ~n:30,
      Experiments.Overhead.nodes_per_ms ~backtrack:Core.Search_state.Snapshot
        ~repeats:20 ~budget:8000 () )
  in
  let header =
    [ ("schema", "\"search_hotpath/5\"");
      ("unit", "\"nodes_per_ms\"");
      ("bench", "\"DDS/lxf on the synthetic 128-node decision point\"") ]
  in
  let fields =
    header
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%.1f" v)) (trail @ [ snapshot ])
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) fields)));
  Printf.printf "wrote %s (%s = %.0f nodes/ms)\n" path smoke_key
    (List.assoc smoke_key trail)

(* The value of the ["key": <number>] line in the baseline file — the
   harness has no JSON dependency and the file is ours, one key a
   line. *)
let baseline_value path key =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "perf-smoke: cannot read baseline: %s\n" msg;
      exit 2
  in
  let prefix = Printf.sprintf "\"%s\":" key in
  List.find_map
    (fun line ->
      let line = String.trim line in
      if String.starts_with ~prefix line then
        let n = String.length prefix in
        let value = String.sub line n (String.length line - n) in
        let value =
          match String.index_opt value ',' with
          | Some i -> String.sub value 0 i
          | None -> value
        in
        float_of_string_opt (String.trim value)
      else None)
    (String.split_on_char '\n' text)

(* --- exact allocation gates ------------------------------------------ *)

(* Minor words [f] allocates on this domain.  [Gc.minor_words] is
   unboxed, so the reads themselves allocate nothing. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A node visit: ten placements down the heuristic path and back, 500
   times, after one warm-up walk has sized the trail. *)
let place_unplace_words () =
  let st = Experiments.Overhead.synthetic_state ~seed:123 () in
  let depth = 10 in
  let walk () =
    for d = 0 to depth - 1 do
      Core.Search_state.place st ~depth:d ~job:(Core.Search_state.first_unused st)
    done;
    for d = depth - 1 downto 0 do
      Core.Search_state.unplace st ~depth:d
    done
  in
  walk ();
  words (fun () ->
      for _ = 1 to 500 do
        walk ()
      done)

(* One sequential DDS run on a synthetic state whose buffers are sized
   for a full path (a replica's are): what it allocates is its fixed
   per-run arrays (the driver, the best path, the result), the same at
   every budget. *)
let dds_run_words budget =
  let st =
    Core.Search_state.replica (Experiments.Overhead.synthetic_state ~seed:123 ())
  in
  words (fun () -> ignore (Core.Search.run Core.Search.Dds ~budget st))

(* The words each runner of [pool] has allocated so far: one task per
   runner, held at a barrier until every runner has claimed one. *)
let runner_words pool =
  let n = Simcore.Pool.jobs pool in
  let arrived = Atomic.make 0 in
  let seen = Array.make n 0.0 in
  Simcore.Pool.run pool n (fun who _ ->
      Atomic.incr arrived;
      while Atomic.get arrived < n do
        Domain.cpu_relax ()
      done;
      seen.(who) <- Gc.minor_words ());
  seen

(* Minor words the helper domain of a 2-wide pool allocates over 20
   split DDS searches at L=8K (after one warm-up search has grown the
   caller's split workspace): its tasks, and its worker loop between
   them. *)
let helper_split_words () =
  Simcore.Pool.with_pool ~jobs:2 (fun pool ->
      let states =
        Array.init 21 (fun i ->
            Experiments.Overhead.synthetic_state ~seed:(2000 + i) ())
      in
      let search st =
        ignore (Core.Search.run ~pool Core.Search.Dds ~budget:8000 st)
      in
      search states.(0);
      let before = runner_words pool in
      for i = 1 to 20 do
        search states.(i)
      done;
      let after = runner_words pool in
      after.(1) -. before.(1))

let allocation_gates () =
  let place = place_unplace_words () in
  let runs = List.map (fun l -> (l, dds_run_words l)) [ 1000; 8000; 100000 ] in
  let fixed = snd (List.hd runs) in
  let helper = helper_split_words () in
  Printf.printf "perf-smoke: place/unplace allocates %.0f words over 10000 nodes
"
    place;
  Printf.printf "perf-smoke: DDS run allocates %s words at L = 1K, 8K, 100K
"
    (String.concat ", " (List.map (fun (_, w) -> Printf.sprintf "%.0f" w) runs));
  Printf.printf "perf-smoke: split helper allocates %.0f words over 20 searches
"
    helper;
  let failures =
    (if place <> 0.0 then [ "place/unplace allocates" ] else [])
    @ (if List.exists (fun (_, w) -> w <> fixed) runs then
         [ "DDS allocates per node (words grow with the budget)" ]
       else [])
    @ if helper <> 0.0 then [ "the split helper allocates" ] else []
  in
  List.iter (fun f -> Printf.eprintf "perf-smoke: FAIL — %s\n" f) failures;
  failures = []

(* --- throughput gates ------------------------------------------------- *)

let snapshot_key = grid_key ~prefix:"snapshot" ~budget:8000 ~n:30

let perf_smoke path =
  let baseline key =
    match baseline_value path key with
    | Some v -> v
    | None ->
        Printf.eprintf "perf-smoke: no %s in %s\n" key path;
        exit 2
  in
  let trail_base = baseline smoke_key and snapshot_base = baseline snapshot_key in
  let alloc_ok = allocation_gates () in
  warm_up ();
  (* Five trials, each trail then snapshot back to back: the median
     trail figure against the absolute floor, and the median
     trail/snapshot ratio, in which host speed cancels, against the
     committed ratio. *)
  let trials =
    Array.init 5 (fun _ ->
        let trail = Experiments.Overhead.nodes_per_ms ~repeats:10 ~budget:8000 () in
        let snapshot =
          Experiments.Overhead.nodes_per_ms ~backtrack:Core.Search_state.Snapshot
            ~repeats:10 ~budget:8000 ()
        in
        (trail, trail /. snapshot))
  in
  let median f = Simcore.Stats.percentile (Array.map f trials) 50.0 in
  let current = median fst and ratio = median snd in
  let floor = 0.7 *. trail_base in
  let ratio_base = trail_base /. snapshot_base in
  let ratio_floor = 0.7 *. ratio_base in
  Printf.printf "perf-smoke: %s = %.0f nodes/ms (baseline %.0f, floor %.0f)\n"
    smoke_key current trail_base floor;
  Printf.printf
    "perf-smoke: trail/snapshot = %.2f (baseline %.2f, floor %.2f)\n" ratio
    ratio_base ratio_floor;
  let speed_ok = current >= floor && ratio >= ratio_floor in
  if current < floor then
    Printf.eprintf
      "perf-smoke: FAIL — search hot path regressed more than 30%%\n";
  if ratio < ratio_floor then
    Printf.eprintf
      "perf-smoke: FAIL — trail backtracking lost more than 30%% against \
       snapshot\n";
  if not (alloc_ok && speed_ok) then exit 1;
  Printf.printf "perf-smoke: OK\n"

(* Write the three trace artifacts next to [path]: the decision JSONL
   and its Chrome view (simulated time, byte-identical for any
   REPRO_JOBS) plus the pool worker spans (wall-clock, for eyeballing
   parallel efficiency only). *)
let write_traces path =
  let chrome_path = Experiments.Common.chrome_path path in
  let traced = Experiments.Common.traced_runs () in
  Experiments.Common.write_traces ~jsonl:path ~chrome:chrome_path traced;
  let pool_path =
    Option.value (Filename.chop_suffix_opt ~suffix:".jsonl" path) ~default:path
    ^ ".pool.json"
  in
  let oc = open_out pool_path in
  let spans = Simcore.Pool.spans (Experiments.Common.pool ()) in
  let t0 =
    List.fold_left
      (fun acc s -> Float.min acc s.Simcore.Pool.Span.posted_s)
      infinity spans
  in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
     \"args\":{\"name\":\"domain pool (wall clock)\"}}";
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n\
         {\"name\":\"task\",\"cat\":\"pool\",\"ph\":\"X\",\"pid\":0,\
         \"tid\":%d,\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"batch\":%d,\
         \"task\":%d,\"wait_ms\":%.3f}}"
        s.Simcore.Pool.Span.domain
        ((s.Simcore.Pool.Span.start_s -. t0) *. 1e6)
        (Simcore.Pool.Span.busy_s s *. 1e6)
        s.Simcore.Pool.Span.batch s.Simcore.Pool.Span.task
        (Simcore.Pool.Span.wait_s s *. 1e3))
    spans;
  output_string oc "\n]}\n";
  close_out oc;
  Printf.printf "wrote %s (%d traced runs), %s, %s (%d pool spans)\n" path
    (List.length traced) chrome_path pool_path (List.length spans)

(* Run-health report pages: one per month/load/estimator cell, its
   policies overlaid, plus a cross-policy index and the raw series
   JSONL.  Everything here renders from the warm run cache, so the
   files are byte-identical for any REPRO_JOBS. *)
let write_reports dir =
  let runs = Experiments.Common.series_runs () in
  let pages = Experiments.Common.write_reports dir runs in
  Printf.printf
    "wrote %d report pages, index.html and series.jsonl (%d runs) to %s\n"
    pages (List.length runs) dir

(* Aggregate the validation reports of every cached run; non-zero exit
   on any violation so @check-smoke can gate on it. *)
let report_validation fmt =
  let reports = Experiments.Common.validation_reports () in
  let bad =
    List.filter
      (fun (_, r) -> not (Schedcheck.Report.ok r))
      reports
  in
  Format.fprintf fmt "@.validation: %d runs checked, %d with violations@."
    (List.length reports) (List.length bad);
  List.iter
    (fun (key, r) -> Format.fprintf fmt "%s -> %a@." key Schedcheck.Report.pp r)
    bad;
  if bad <> [] then begin
    Format.pp_print_flush fmt ();
    exit 1
  end

let run_bench jobs trace report validate progress json smoke =
  Option.iter Experiments.Common.set_jobs jobs;
  if trace <> None then begin
    Experiments.Common.set_tracing true;
    Simcore.Pool.set_tracing (Experiments.Common.pool ()) true
  end;
  if report <> None then Experiments.Common.set_series true;
  if validate then Experiments.Common.set_validation true;
  (match (json, smoke) with
  | Some path, None ->
      require_release ();
      perf_json path
  | None, Some path ->
      require_release ();
      perf_smoke path
  | Some _, Some _ ->
      prerr_endline "--perf-json and --perf-smoke are exclusive";
      exit 2
  | None, None ->
      let fmt = Format.std_formatter in
      let t0 = Simcore.Clock.monotonic_s () in
      run_experiments ~progress fmt;
      Format.fprintf fmt "@.total bench time: %.1fs@."
        (Simcore.Clock.monotonic_s () -. t0);
      Option.iter write_traces trace;
      Option.iter write_reports report;
      (* Summary on stderr so @check-smoke can silence the tables and
         still show it. *)
      if validate then report_validation Format.err_formatter);
  Experiments.Common.shutdown_pool ()

let () =
  let open Cmdliner in
  let jobs =
    let positive =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some j when j >= 1 -> Ok j
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf "invalid -j value %S (want an int >= 1)" s))),
          Format.pp_print_int )
    in
    Arg.(value & opt (some positive) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domain-pool width (also REPRO_JOBS).")
  in
  let path_flag name ~default ~doc =
    Arg.(value & opt ~vopt:(Some default) (some string) None
         & info [ name ] ~docv:"PATH" ~doc)
  in
  let flag name ~doc = Arg.(value & flag & info [ name ] ~doc) in
  let term =
    Term.(const run_bench $ jobs
          $ path_flag "trace" ~default:"bench.trace.jsonl"
              ~doc:"Record and write the decision trace (see the header)."
          $ path_flag "report" ~default:"bench-report"
              ~doc:"Write run-health report pages into this directory."
          $ flag "validate" ~doc:"Validate every simulated schedule."
          $ flag "progress" ~doc:"Print a progress heartbeat on stderr."
          $ path_flag "perf-json" ~default:"BENCH_search_hotpath.json"
              ~doc:"Measure the search hot path instead of the tables."
          $ path_flag "perf-smoke" ~default:"BENCH_search_hotpath.json"
              ~doc:"Check the search hot path against a baseline JSON.")
  in
  let info = Cmd.info "main.exe" ~doc:"reproduction bench harness" in
  exit (Cmd.eval (Cmd.v info term))
