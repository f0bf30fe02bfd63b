(* The repository benchmark: one workload per invocation, timed from
   outside the library through its public API.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones, as the last line of stdout (one JSON object).  Each
   run sets up several times and reports the median set-up, then makes
   a fixed number of passes over the workload's simulations, about S
   seconds of them, and reports the median pass.  Every simulation is
   checked outside the timed regions; see README.md for the workloads
   and metrics. *)

module Samples = Perfbench_kit.Samples
module Staged = Perfbench_kit.Staged
module Schedule = Perfbench_kit.Schedule
module Common = Experiments.Common

let clock = Simcore.Clock.monotonic_s

(* Set-up takes milliseconds on some workloads: repeat it at least 5
   times and for at least one second, and report the median. *)
let repeat_setup f =
  let t0 = clock () in
  let rec go acc n =
    if n >= 5 && clock () -. t0 >= 1.0 then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* The number of passes is S over the workload's nominal pass time,
   rounded up: it is fixed by the arguments, never by the measured
   speed, so two commits compared at the same S report the same
   statistic over the same number of passes. *)
let pass_count ~nominal_s ~seconds =
  max 1 (int_of_float (Float.ceil (seconds /. nominal_s)))

(* ------------------------------------------------------------------ *)
(* Operations: every simulation is one; a failure is a raise, a       *)
(* validator violation or a digest that differs from the first run.   *)

let attempted = ref 0
let failed = ref 0

let op ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("decide_us_p50", "us");
    ("decide_us_p99", "us") ]

(* The registry minus [overhead], which prints host timings. *)
let grid_registry =
  List.filter
    (fun (e : Experiments.Registry.t) -> e.id <> "overhead")
    Experiments.Registry.all

(* Registry ids may hold characters metric names do not allow. *)
let experiment_metric id =
  "experiments."
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c
        | _ -> '-')
      id
  ^ "_s"

let per_layer =
  [
    ("workload.generate_s", "s"); ("workload.jobs", "count");
    ("sim.engine_self_s", "s"); ("sim.decisions", "count");
    ("sim.queue_len_mean", "count");
    ("sched.backfill_plan_us_mean", "us"); ("sched.profile_of_us_mean", "us");
    ("cluster.profile_segments_mean", "count");
    ("core.branching_us_mean", "us"); ("core.thresholds_us_mean", "us");
    ("core.state_create_us_mean", "us"); ("core.search_us_mean", "us");
    ("core.search_us_p99", "us"); ("core.nodes_per_decision", "count");
    ("core.ns_per_node", "ns"); ("core.nodes_per_leaf", "count");
    ("core.exhausted_ratio", "ratio");
    ("check.validate_s", "s"); ("sim.export_s", "s"); ("sim.observe_s", "s");
    ("simcore.pool_busy_ratio", "ratio"); ("simcore.pool_tasks", "count");
    ("simcore.pool_task_s_max", "s");
    ("gc.minor_words_per_decision", "words");
    ("gc.major_collections", "count");
    ("bench.trace_overhead_ratio", "ratio");
    ("bench.decide_samples", "count");
  ]
  @ List.map
      (fun (e : Experiments.Registry.t) -> (experiment_metric e.id, "s"))
      grid_registry

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let us s = s *. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b

let median xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.median s

let print_result ~trace =
  let names = if trace then per_layer else end_to_end in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failed = 0 && !attempted > 0) !attempted !failed;
  List.iteri
    (fun i (name, unit) ->
      let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "metric %s is not finite" name);
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") name v unit)
    names;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* month-search and year-fixedcost: the benchmark builds the policies  *)

type spec = Fcfs_backfill | Lxf_backfill | Dds of Core.Search_policy.config

type cell = {
  label : string;
  trace : Workload.Trace.t;
  r_star : Sim.Engine.r_star;
  spec : spec;
}

type own = {
  months : string list;
  nominal_s : float;  (** host seconds of one pass, roughly *)
  own_r_star : Sim.Engine.r_star;
  specs : spec list;
}

let month_search =
  {
    months = [ "1/04" ];
    nominal_s = 20.0;
    own_r_star = Sim.Engine.Actual;
    specs = [ Dds (Core.Search_policy.dds_lxf_dynb ~budget:10_000) ];
  }

let year_fixedcost =
  {
    months =
      Array.to_list
        (Array.map
           (fun (m : Workload.Month_profile.t) -> m.label)
           Workload.Month_profile.all);
    nominal_s = 7.0;
    own_r_star = Sim.Engine.Requested;
    specs =
      [ Fcfs_backfill; Lxf_backfill;
        Dds (Core.Search_policy.dds_lxf_dynb ~budget:1) ];
  }

let library_policy = function
  | Fcfs_backfill -> Sched.Backfill.policy Sched.Priority.fcfs
  | Lxf_backfill -> Sched.Backfill.policy Sched.Priority.lxf
  | Dds config -> fst (Core.Search_policy.policy config)

let staged_policy staged = function
  | Fcfs_backfill -> Staged.backfill staged Sched.Priority.fcfs
  | Lxf_backfill -> Staged.backfill staged Sched.Priority.lxf
  | Dds config -> Staged.dds staged config

(* Times every decide call into [samples]; [queue] (traced runs only)
   sums the queue lengths the policy saw. *)
let timed ?queue samples (policy : Sched.Policy.t) =
  let decide (ctx : Sched.Policy.context) =
    let t0 = clock () in
    let started = policy.decide ctx in
    Samples.add samples (clock () -. t0);
    (match queue with
    | None -> ()
    | Some q -> q := !q + List.length ctx.waiting);
    started
  in
  { policy with decide }

(* The workloads run the repository's canonical traces: the generator
   at Experiments.Common's default REPRO_SEED, behind every committed
   table.  The benchmark seed perturbs them: each submit time moves by
   a seeded uniform jitter of up to [jitter_s], so every seed gives new
   decision points and schedules on the same months.  Passing the seed
   to the generator instead gives each seed a different queueing
   regime at rho = 0.9, and the cost of a month then varies by a third
   from seed to seed (README.md). *)
let canonical_seed = 42
let jitter_s = 600.0

let perturb ~seed trace =
  let rng = Simcore.Rng.create ~seed in
  let jobs =
    Array.map
      (fun (j : Workload.Job.t) ->
        let shift = jitter_s *. ((2.0 *. Simcore.Rng.unit_float rng) -. 1.0) in
        { j with submit = Float.max 0.0 (j.submit +. shift) })
      (Workload.Trace.jobs trace)
  in
  Workload.Trace.v
    ~measure_start:(Workload.Trace.measure_start trace)
    ~measure_end:(Workload.Trace.measure_end trace)
    (Array.to_list jobs)

(* One set-up: generate and perturb every month, scale it to rho = 0.9,
   build the policies.  Returns the cells, the policies and
   (generation s, total s). *)
let own_setup w ~seed =
  let t0 = clock () in
  let config =
    { Workload.Generator.default_config with seed = canonical_seed }
  in
  let traces =
    List.mapi
      (fun i label ->
        let month =
          Workload.Generator.month ~config (Workload.Month_profile.find label)
        in
        ( label,
          Workload.Trace.scale_load
            (perturb ~seed:((seed * 64) + i) month)
            ~capacity:Workload.Month_profile.capacity ~target:0.9 ))
      w.months
  in
  let t1 = clock () in
  let cells =
    List.concat_map
      (fun (label, trace) ->
        List.map (fun spec -> { label; trace; r_star = w.own_r_star; spec })
          w.specs)
      traces
  in
  let policies = List.map (fun c -> library_policy c.spec) cells in
  let t2 = clock () in
  (cells, policies, (t1 -. t0, t2 -. t0))

let cell_name c policy =
  Printf.sprintf "%s %s %s" c.label (Sim.Engine.r_star_name c.r_star)
    policy.Sched.Policy.name

type sim = {
  result : (Sim.Engine.result, exn) result;
  wall : float;
  minor_words : float;
  major : int;
}

(* Each simulation starts on a fully collected heap, so it pays only for
   its own garbage and the heap's high-water mark does not creep up from
   pass to pass. *)
let simulate cell policy =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let result =
    try Ok (Sim.Engine.run ~r_star:cell.r_star ~policy cell.trace)
    with e -> Error e
  in
  let wall = clock () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    result;
    wall;
    minor_words = g1.minor_words -. g0.minor_words;
    major = g1.major_collections - g0.major_collections;
  }

type pass = {
  wall : float;
  in_decide : float;
  decide_p50 : float;
  decide_p99 : float;
  decide_n : int;
  decisions : float;
  minor_words : float;
  major : float;
}

let run_own w ~seed ~seconds ~trace =
  (* Only the last set-up is kept, so repeats do not inflate memory. *)
  let last = ref None in
  let setups =
    repeat_setup (fun () ->
        let cells, policies, times = own_setup w ~seed in
        last := Some (cells, policies);
        times)
  in
  let cells, first_policies = Option.get !last in
  set "setup_s" (median (List.map snd setups));
  set "workload.generate_s" (median (List.map fst setups));
  set "workload.jobs"
    (float_of_int
       (List.fold_left
          (fun acc label ->
            acc
            + Workload.Trace.length
                (List.find (fun c -> c.label = label) cells).trace)
          0 w.months));
  let decide = Samples.create () in
  let first_digests = Hashtbl.create 32 in
  (* Checks one finished simulation: it must validate (when asked) and
     repeat the digest of the first pass. *)
  let check ~validate cell policy sim =
    let what = cell_name cell policy in
    match sim.result with
    | Error e -> op ~what:(what ^ ": " ^ Printexc.to_string e) false
    | Ok r ->
        let digest = Schedule.digest r.Sim.Engine.outcomes in
        let same =
          match Hashtbl.find_opt first_digests what with
          | None ->
              Hashtbl.replace first_digests what digest;
              true
          | Some d -> String.equal d digest
        in
        let valid =
          (not validate)
          || Schedcheck.Report.ok
               (Schedule.validate ~policy:policy.Sched.Policy.name
                  ~r_star:cell.r_star cell.trace r.Sim.Engine.outcomes)
        in
        op ~what:(what ^ if same then " (invalid schedule)" else " (digest)")
          (same && valid)
  in
  (* Untraced passes: library policies wrapped by the latency timer.
     Each pass keeps only its totals and latency percentiles. *)
  let passes = ref [] in
  let policies = ref first_policies in
  for i = 1 to pass_count ~nominal_s:w.nominal_s ~seconds do
    Samples.clear decide;
    (* Each schedule is checked, then dropped, right after its run. *)
    let sims =
      List.map2
        (fun c p ->
          let s = simulate c (timed decide p) in
          check ~validate:true c p s;
          ( s.wall,
            (match s.result with
            | Ok r -> float_of_int r.Sim.Engine.decisions
            | Error _ -> 0.0),
            s.minor_words,
            float_of_int s.major ))
        cells !policies
    in
    (* fresh instances for the next pass: search policies keep state *)
    policies := List.map (fun c -> library_policy c.spec) cells;
    let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 sims in
    let pass =
      {
        wall = total (fun (w, _, _, _) -> w);
        in_decide = Samples.sum decide;
        decide_p50 = Samples.median decide;
        decide_p99 = Samples.quantile decide 0.99;
        decide_n = Samples.count decide;
        decisions = total (fun (_, d, _, _) -> d);
        minor_words = total (fun (_, _, m, _) -> m);
        major = total (fun (_, _, _, g) -> g);
      }
    in
    Printf.eprintf "perfbench: pass %d: %.3f s\n%!" i pass.wall;
    passes := pass :: !passes
  done;
  let passes = List.rev !passes in
  let run_s = median (List.map (fun p -> p.wall) passes) in
  set "run_s" run_s;
  set "decide_us_p50" (us (median (List.map (fun p -> p.decide_p50) passes)));
  set "decide_us_p99" (us (median (List.map (fun p -> p.decide_p99) passes)));
  let first = List.hd passes in
  set "bench.decide_samples" (float_of_int first.decide_n);
  set "sim.engine_self_s"
    (median (List.map (fun p -> p.wall -. p.in_decide) passes));
  set "sim.decisions" first.decisions;
  set "gc.minor_words_per_decision" (ratio first.minor_words first.decisions);
  set "gc.major_collections" first.major;
  if trace then begin
    (* Traced pass: the staged pipelines, each stage timed inline.  Its
       digests must equal the untraced ones. *)
    let staged = Staged.create () in
    let queue = ref 0 in
    let calls = Samples.create () in
    let wall =
      List.fold_left
        (fun acc c ->
          let policy = staged_policy staged c.spec in
          let sim = simulate c (timed ~queue calls policy) in
          check ~validate:false c policy sim;
          acc +. sim.wall)
        0.0 cells
    in
    set "bench.trace_overhead_ratio" (ratio wall run_s);
    set "sim.queue_len_mean"
      (ratio (float_of_int !queue) (float_of_int (Samples.count calls)));
    let mean_us s = us (Samples.mean s) in
    set "sched.backfill_plan_us_mean" (mean_us staged.plan);
    set "sched.profile_of_us_mean" (mean_us staged.profile_of);
    set "core.branching_us_mean" (mean_us staged.branching);
    set "core.thresholds_us_mean" (mean_us staged.thresholds);
    set "core.state_create_us_mean" (mean_us staged.state_create);
    set "core.search_us_mean" (mean_us staged.search);
    set "core.search_us_p99" (us (Samples.quantile staged.search 0.99));
    let searched = float_of_int staged.searched in
    let nodes = float_of_int staged.nodes in
    set "cluster.profile_segments_mean"
      (ratio (float_of_int staged.segments) searched);
    set "core.nodes_per_decision" (ratio nodes searched);
    set "core.ns_per_node" (ratio (Samples.sum staged.search *. 1e9) nodes);
    set "core.nodes_per_leaf" (ratio nodes (float_of_int staged.leaves));
    set "core.exhausted_ratio" (ratio (float_of_int staged.exhausted) searched)
  end

(* ------------------------------------------------------------------ *)
(* grid-observed: the experiment registry through Experiments.Common   *)

(* The grid's registry entries in an order drawn from the benchmark
   seed: the order decides which entry first pays for each shared cached
   run and how the pool interleaves work.  The traces are the canonical
   ones (REPRO_SEED = [canonical_seed]), on which the claims hold; see
   README.md for why the seed does not go to the generator. *)
let grid_entries ~seed =
  let entries = Array.of_list grid_registry in
  let rng = Simcore.Rng.create ~seed in
  for i = Array.length entries - 1 downto 1 do
    let k = Simcore.Rng.int rng (i + 1) in
    let e = entries.(i) in
    entries.(i) <- entries.(k);
    entries.(k) <- e
  done;
  Array.to_list entries

let grid_loads = [ Common.Original; Common.Rho 0.9 ]

(* The three Common switches: all on (the workload), all off, or
   validation alone (for the observer costs by difference). *)
type observers = All | Validation_only | Off

let set_observers o =
  Common.set_tracing (o = All);
  Common.set_series (o = All);
  Common.set_validation (o <> Off)

(* Empty caches, then generate every trace the grid reads (timed). *)
let grid_setup () =
  Common.reset_caches ();
  let t0 = clock () in
  List.iter
    (fun m -> List.iter (fun load -> ignore (Common.trace m load)) grid_loads)
    (Common.months ());
  clock () -. t0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path f =
  let oc = open_out_bin path in
  let fmt = Format.formatter_of_out_channel oc in
  f fmt;
  Format.pp_print_flush fmt ();
  close_out oc

(* Cache keys read month/load/estimator/policy; the month label holds
   one '/' itself (e.g. 1/04). *)
let split_key key =
  match String.split_on_char '/' key with
  | m1 :: m2 :: load :: r_star :: (_ :: _ as policy) ->
      Some (m1 ^ "/" ^ m2, load, r_star, String.concat "/" policy)
  | _ -> None

(* Decision JSONL, Chrome trace, series JSONL and one HTML report page
   per month/load/estimator cell plus an index, as bench --trace and
   --report write them. *)
let export dir =
  mkdir_p dir;
  write_file (Filename.concat dir "decisions.jsonl") Common.pp_traces;
  write_file (Filename.concat dir "decisions.chrome.json") (fun fmt ->
      Format.pp_print_string fmt (Common.chrome_trace_document ()));
  write_file (Filename.concat dir "series.jsonl") Common.pp_series;
  let cells = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, series) ->
      let cell, label =
        match split_key key with
        | Some (m, load, r, policy) -> (String.concat "/" [ m; load; r ], policy)
        | None -> (key, key)
      in
      match Hashtbl.find_opt cells cell with
      | None ->
          order := cell :: !order;
          Hashtbl.replace cells cell [ (label, series) ]
      | Some runs -> Hashtbl.replace cells cell ((label, series) :: runs))
    (Common.series_runs ());
  let sections =
    List.rev_map
      (fun cell ->
        {
          Sim.Report.href =
            String.map
              (fun c ->
                match c with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
                | _ -> '_')
              cell
            ^ ".html";
          title = cell;
          runs = List.rev (Hashtbl.find cells cell);
        })
      !order
  in
  List.iter
    (fun (s : Sim.Report.section) ->
      write_file (Filename.concat dir s.href) (fun fmt ->
          Format.pp_print_string fmt
            (Sim.Report.page ~title:("Run health: " ^ s.title) s.runs)))
    sections;
  write_file (Filename.concat dir "index.html") (fun fmt ->
      Format.pp_print_string fmt
        (Sim.Report.index ~title:"Run-health reports" sections))

(* The cached run behind a cache key, read back through the memoized
   public entry point; the thunk is never forced for a cached key. *)
let cached_run key =
  match split_key key with
  | None -> None
  | Some (month, load, r_star, policy_key) ->
      let load =
        if load = "original" then Some Common.Original
        else
          match String.split_on_char '=' load with
          | [ "rho"; r ] -> Option.map (fun r -> Common.Rho r) (float_of_string_opt r)
          | _ -> None
      in
      let r_star =
        List.find_opt
          (fun r -> Sim.Engine.r_star_name r = r_star)
          [ Sim.Engine.Actual; Sim.Engine.Requested; Sim.Engine.Predicted ]
      in
      Option.bind load (fun load ->
          Option.map
            (fun r_star ->
              Common.simulate ~policy_key
                ~policy:(fun () -> invalid_arg ("not cached: " ^ key))
                ~r_star
                (Workload.Month_profile.find month)
                load)
            r_star)

type grid_pass = {
  wall : float;  (** experiments plus exports *)
  experiments_s : float;
  export_s : float;
  per_experiment : (string * float) list;
  text : string;  (** digest of the rendered experiment output *)
}

(* One pass over the registry on freshly emptied caches and a fully
   collected heap.  Returns the set-up time, the pass and its cached
   runs by key (none with the observers off). *)
let grid_pass ~entries ~observers ~out =
  set_observers observers;
  let setup = grid_setup () in
  Gc.full_major ();
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  let t0 = clock () in
  let per_experiment =
    List.map
      (fun (e : Experiments.Registry.t) ->
        let t = clock () in
        (try e.run fmt
         with exn ->
           op ~what:(e.id ^ ": " ^ Printexc.to_string exn) false);
        (e.id, clock () -. t))
      entries
  in
  let t1 = clock () in
  if observers = All then export out;
  let t2 = clock () in
  Format.pp_print_flush fmt ();
  let runs =
    if observers <> Off then
      List.filter_map
        (fun (key, _) -> Option.map (fun r -> (key, r)) (cached_run key))
        (Common.validation_reports ())
    else []
  in
  ( setup,
    {
      wall = t2 -. t0;
      experiments_s = t1 -. t0;
      export_s = t2 -. t1;
      per_experiment;
      text = Digest.to_hex (Digest.string (Buffer.contents buf));
    },
    runs )

(* Host seconds of one grid pass, roughly, for [pass_count]. *)
let grid_nominal_s = 8.0

(* The grid builds no policies of its own, so its decide latency is
   each cached simulation's host time per decision (engine, policy,
   observers and validation), one sample per decision, pooled over the
   passes: a single scale-0.1 run is short, and its mean moves with
   what the other pool worker is doing. *)
let add_decide_samples decide runs =
  List.iter
    (fun (_, (run : Sim.Run.t)) ->
      let per = ratio run.wall_clock (float_of_int run.decisions) in
      for _ = 1 to run.decisions do
        Samples.add decide per
      done)
    runs

let run_grid ~seed ~seconds ~trace ~out =
  Unix.putenv "REPRO_SCALE" "0.1";
  Unix.putenv "REPRO_MONTHS" "7/03,1/04";
  Unix.putenv "REPRO_MAXL" "10000";
  Unix.putenv "REPRO_SEED" (string_of_int canonical_seed);
  let entries = grid_entries ~seed in
  Common.set_jobs (Domain.recommended_domain_count ());
  let pool = Common.pool () in
  let setups = repeat_setup grid_setup in
  let first_text = ref None in
  let first_digest = Hashtbl.create 256 in
  (* Every cached run is one operation: it must validate and keep the
     first pass's outcome digest.  The rendered text must repeat too. *)
  let check name (p : grid_pass) runs =
    (match !first_text with
    | None -> first_text := Some p.text
    | Some t -> op ~what:(name ^ " rendered output") (String.equal t p.text));
    List.iter
      (fun (key, (run : Sim.Run.t)) ->
        let digest = Schedule.digest run.measured in
        let same =
          match Hashtbl.find_opt first_digest key with
          | None ->
              Hashtbl.replace first_digest key digest;
              true
          | Some d -> String.equal d digest
        in
        let valid =
          match run.validation with
          | Some r -> Schedcheck.Report.ok r
          | None -> false
        in
        op ~what:(name ^ " " ^ key) (same && valid))
      runs
  in
  let passes = ref [] in
  let setup_s = ref setups in
  let decide = Samples.create () in
  for i = 1 to pass_count ~nominal_s:grid_nominal_s ~seconds do
    let setup, p, runs = grid_pass ~entries ~observers:All ~out in
    Printf.eprintf "perfbench: pass %d: %.3f s\n%!" i p.wall;
    setup_s := setup :: !setup_s;
    check "grid" p runs;
    add_decide_samples decide runs;
    if !passes = [] then begin
      let decisions =
        List.fold_left (fun acc (_, (r : Sim.Run.t)) -> acc + r.decisions) 0
          runs
      in
      set "sim.decisions" (float_of_int decisions);
      List.iter
        (fun (claim, holds) -> op ~what:("claim: " ^ claim) holds)
        (Experiments.Claims.evaluate ());
    end;
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  let run_s = median (List.map (fun p -> p.wall) passes) in
  set "setup_s" (median !setup_s);
  set "workload.generate_s" (median !setup_s);
  set "run_s" run_s;
  set "bench.decide_samples" (float_of_int (Samples.count decide));
  set "decide_us_p50" (us (Samples.median decide));
  set "decide_us_p99" (us (Samples.quantile decide 0.99));
  set "workload.jobs"
    (float_of_int
       (List.fold_left
          (fun acc m ->
            List.fold_left
              (fun acc load -> acc + Workload.Trace.length (Common.trace m load))
              acc grid_loads)
          0 (Common.months ())));
  if trace then begin
    (* Traced pass: pool spans and per-experiment timers on. *)
    Simcore.Pool.clear_spans pool;
    Simcore.Pool.set_tracing pool true;
    let _, traced, runs = grid_pass ~entries ~observers:All ~out in
    Simcore.Pool.set_tracing pool false;
    check "traced grid" traced runs;
    let spans = Simcore.Pool.spans pool in
    let busy = List.map Simcore.Pool.Span.busy_s spans in
    set "bench.trace_overhead_ratio" (ratio traced.wall run_s);
    set "simcore.pool_tasks" (float_of_int (List.length spans));
    set "simcore.pool_task_s_max" (List.fold_left Float.max 0.0 busy);
    set "simcore.pool_busy_ratio"
      (ratio (List.fold_left ( +. ) 0.0 busy)
         (float_of_int (Simcore.Pool.jobs pool) *. traced.experiments_s));
    List.iter
      (fun (id, s) -> set (experiment_metric id) s)
      traced.per_experiment;
    set "sim.export_s" traced.export_s;
    (* Observer costs by difference: the grid with the three Common
       switches off, with validation alone on, and with all on, back to
       back in each round, so the host drifts little within a
       difference; the median over the rounds. *)
    let experiments_s observers name =
      let _, p, runs = grid_pass ~entries ~observers ~out in
      check name p runs;
      p.experiments_s
    in
    let rounds =
      List.init 2 (fun _ ->
          let off = experiments_s Off "grid, observers off" in
          let validated = experiments_s Validation_only "grid, validation only" in
          let all = experiments_s All "grid" in
          (validated -. off, all -. off))
    in
    set "check.validate_s" (median (List.map fst rounds));
    set "sim.observe_s" (median (List.map snd rounds))
  end;
  Common.shutdown_pool ()

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload month-search|year-fixedcost|grid-observed \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      if Build_profile.name <> "release" then begin
        Printf.eprintf
          "perfbench: built in the %s profile; timings are only reported \
           from a release build (dune build --profile release)\n"
          Build_profile.name;
        exit 3
      end;
      (* grid artifacts, relative to the checkout root *)
      let out = Filename.concat ".bench_out" workload in
      (match workload with
      | "month-search" -> run_own month_search ~seed ~seconds ~trace
      | "year-fixedcost" -> run_own year_fixedcost ~seed ~seconds ~trace
      | "grid-observed" -> run_grid ~seed ~seconds ~trace ~out
      | _ -> usage ());
      Printf.eprintf "perfbench: %s seed %d: %d operations, %d failed\n%!"
        workload seed !attempted !failed;
      print_result ~trace
  | _ -> usage ()
