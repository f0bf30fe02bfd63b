type load = Original | Rho of float

let load_label = function
  | Original -> "original"
  | Rho r -> Printf.sprintf "rho=%.2f" r

let env_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | _ -> default)

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> Option.value (int_of_string_opt s) ~default

(* Env knobs are read once and cached, but the cache is resettable so
   harnesses (perfbench grid, determinism tests) can re-point REPRO_* and
   rerun in-process.  Concurrent first reads race benignly: both
   domains compute the same value from the same environment. *)
let cached_env read =
  let cell = ref None in
  let get () =
    match !cell with
    | Some v -> v
    | None ->
        let v = read () in
        cell := Some v;
        v
  in
  let reset () = cell := None in
  (get, reset)

let scale, reset_scale = cached_env (fun () -> env_float "REPRO_SCALE" 1.0)
let seed, reset_seed = cached_env (fun () -> env_int "REPRO_SEED" 42)

let months, reset_months =
  cached_env (fun () ->
      match Sys.getenv_opt "REPRO_MONTHS" with
      | None | Some "" -> Array.to_list Workload.Month_profile.all
      | Some csv ->
          String.split_on_char ',' csv
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map Workload.Month_profile.find)

(* ------------------------------------------------------------------ *)
(* Parallel execution: one process-wide domain pool                    *)

let jobs = Simcore.Pool.shared_jobs
let set_jobs = Simcore.Pool.set_shared_jobs
let pool = Simcore.Pool.shared
let shutdown_pool = Simcore.Pool.shutdown_shared
let par_iter f xs = Simcore.Pool.iter (pool ()) ~f xs
let par_map f xs = Simcore.Pool.map (pool ()) ~f xs
let prefetch thunks = par_iter (fun f -> f ()) thunks

(* ------------------------------------------------------------------ *)
(* Compute-once trace / run caches                                     *)

let trace_cache : (string, Workload.Trace.t) Simcore.Memo.t =
  Simcore.Memo.create ~size:32 ()

let trace profile load =
  let key =
    Printf.sprintf "%s/%s" profile.Workload.Month_profile.label
      (load_label load)
  in
  Simcore.Memo.get trace_cache key (fun () ->
      let base =
        let config =
          { Workload.Generator.default_config with
            scale = scale ();
            seed = seed ();
          }
        in
        Workload.Generator.month ~config profile
      in
      match load with
      | Original -> base
      | Rho r ->
          Workload.Trace.scale_load base
            ~capacity:Workload.Month_profile.capacity ~target:r)

(* The three switches: what a run computed into the cache records. *)
let tracing_cell = ref false
let set_tracing v = tracing_cell := v
let validation_cell = ref false
let set_validation v = validation_cell := v
let series_cell = ref false
let set_series v = series_cell := v

(* The run cache is keyed on the run (month/load/estimator/policy) and
   on the switches' recording set at request time, so a run cached
   before a switch was flipped is never returned without the recording
   it now asks for. *)
let run_cache : (string * (bool * bool * bool), Sim.Run.t) Simcore.Memo.t =
  Simcore.Memo.create ~size:64 ()

let simulate ~policy_key ~policy ~r_star profile load =
  let key =
    Printf.sprintf "%s/%s/%s/%s" profile.Workload.Month_profile.label
      (load_label load)
      (Sim.Engine.r_star_name r_star)
      policy_key
  in
  let ((log, series, validate) as recording) =
    (!tracing_cell, !series_cell, !validation_cell)
  in
  Simcore.Memo.get run_cache (key, recording) (fun () ->
      let when_ on recorder = if on then [ recorder () ] else [] in
      let record =
        when_ log (fun () ->
            Sim.Run.Log (Sim.Decision_log.create ~policy:policy_key ()))
        @ when_ series (fun () ->
              Sim.Run.Series (Sim.Series.create ~policy:policy_key ()))
        @ when_ validate (fun () -> Sim.Run.Validation)
      in
      Sim.Run.simulate ~record ~r_star ~policy:(policy ()) (trace profile load))

(* Cached runs carrying [field], sorted by run key.  A run cached under
   several recording sets is listed once: its recordings are identical,
   the simulation being deterministic. *)
let recorded field =
  Simcore.Memo.bindings run_cache
  |> List.filter_map (fun ((key, _), run) ->
         Option.map (fun v -> (key, v)) (field run))
  |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)

let traced_runs () = recorded (fun r -> r.Sim.Run.log)
let validation_reports () = recorded (fun r -> r.Sim.Run.validation)
let series_runs () = recorded (fun r -> r.Sim.Run.series)

let pp_series fmt =
  List.iter (fun (key, s) -> Sim.Series.pp_jsonl ~run:key fmt s)
    (series_runs ())

let pp_traces fmt =
  List.iter (fun (key, log) -> Sim.Decision_log.pp_jsonl ~run:key fmt log)
    (traced_runs ())

let chrome_trace_document () = Sim.Decision_log.chrome_document (traced_runs ())

let write_file path f =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  f fmt;
  Format.pp_print_flush fmt ();
  close_out oc

let chrome_path jsonl =
  Option.value (Filename.chop_suffix_opt ~suffix:".jsonl" jsonl) ~default:jsonl
  ^ ".chrome.json"

let write_traces ~jsonl ~chrome runs =
  write_file jsonl (fun fmt ->
      List.iter (fun (run, log) -> Sim.Decision_log.pp_jsonl ~run fmt log) runs);
  write_file chrome (fun fmt ->
      Format.pp_print_string fmt (Sim.Decision_log.chrome_document runs))

let write_reports dir runs =
  (* A run key is month/load/estimator/policy, the month label holding
     one '/' itself (e.g. 7/03): the cell is the first four segments,
     the policy the rest. *)
  let split key =
    match String.split_on_char '/' key with
    | m1 :: m2 :: load :: rstar :: (_ :: _ as policy) ->
        (String.concat "/" [ m1; m2; load; rstar ], String.concat "/" policy)
    | _ -> (key, key)
  in
  let cells = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, s) ->
      let cell, label = split key in
      match Hashtbl.find_opt cells cell with
      | None ->
          order := cell :: !order;
          Hashtbl.replace cells cell [ (label, s) ]
      | Some rs -> Hashtbl.replace cells cell ((label, s) :: rs))
    runs;
  let sanitize =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c
      | _ -> '_')
  in
  let sections =
    List.rev_map
      (fun cell ->
        {
          Sim.Report.href = sanitize cell ^ ".html";
          title = cell;
          runs = List.rev (Hashtbl.find cells cell);
        })
      !order
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name html =
    write_file (Filename.concat dir name) (fun fmt ->
        Format.pp_print_string fmt html)
  in
  List.iter
    (fun (s : Sim.Report.section) ->
      write s.href
        (Sim.Report.page ~title:("Run health: " ^ s.title)
           ~subtitle:"month / load / estimator cell, one run per policy"
           s.runs))
    sections;
  write "index.html" (Sim.Report.index ~title:"Run-health reports" sections);
  write_file (Filename.concat dir "series.jsonl") (fun fmt ->
      List.iter (fun (run, s) -> Sim.Series.pp_jsonl ~run fmt s) runs);
  List.length sections

let reset_caches () =
  Simcore.Memo.clear trace_cache;
  Simcore.Memo.clear run_cache;
  reset_scale ();
  reset_seed ();
  reset_months ()

let prefetch_runs ~months policies =
  prefetch
    (List.concat_map
       (fun (_, runner) ->
         List.map (fun m () -> ignore (runner m : Sim.Run.t)) months)
       policies)

let fcfs_run ~r_star profile load =
  simulate ~policy_key:"FCFS-backfill"
    ~policy:(fun () -> Sched.Backfill.fcfs)
    ~r_star profile load

let fcfs_max_threshold ~r_star profile load =
  (fcfs_run ~r_star profile load).Sim.Run.aggregate.Metrics.Aggregate.max_wait

let fcfs_p98_threshold ~r_star profile load =
  (fcfs_run ~r_star profile load).Sim.Run.aggregate.Metrics.Aggregate.p98_wait

let search_policy config () = fst (Core.Search_policy.policy config)

let section fmt ~id title =
  Format.fprintf fmt "@.%s@.== %s: %s@.%s@." (String.make 72 '=') id title
    (String.make 72 '=')
