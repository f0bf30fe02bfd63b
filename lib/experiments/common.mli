(** Shared plumbing for the paper-reproduction experiments.

    Environment knobs (read once at first use):
    - [REPRO_SCALE]  — workload scale factor (default 1.0; smaller
      values shrink both job counts and the time axis, preserving
      load, for CI-sized runs);
    - [REPRO_MONTHS] — comma-separated month labels (default: all ten);
    - [REPRO_SEED]   — generator seed (default 42).

    Traces and simulation runs are memoized per process so that every
    figure sharing a (month, load, policy, estimator) combination pays
    for it once.  The memo tables are domain-safe and compute-once
    ([Simcore.Memo]): concurrent requests for one key force the policy
    thunk and run the simulation exactly once, everyone else blocks on
    the promise.  Figure harnesses enumerate their run sets up front
    and warm the cache through a shared domain pool ([prefetch] /
    [prefetch_runs]); formatting then reads the warm cache
    sequentially, so output is byte-identical for every [jobs]
    setting. *)

type load = Original | Rho of float

val load_label : load -> string

val scale : unit -> float
val seed : unit -> int
val months : unit -> Workload.Month_profile.t list

(** {2 Parallel execution}

    The process-wide domain pool, {!Simcore.Pool.shared}: sized by the
    [REPRO_JOBS] environment variable (or a [-j] flag via [set_jobs];
    default: [Domain.recommended_domain_count ()], at least 1).
    [jobs = 1] preserves the sequential path exactly: no domain is
    spawned and work runs in submission order in the caller.  The
    search policies use the same pool, so a process has one. *)

val jobs : unit -> int
(** The resolved concurrency width ({!Simcore.Pool.shared_jobs}). *)

val set_jobs : int -> unit
(** Override the width (clamped to >= 1); shuts down and re-creates
    the shared pool on the next use if the width changed. *)

val pool : unit -> Simcore.Pool.t
(** The shared pool, created on first use. *)

val shutdown_pool : unit -> unit
(** Join the pool's worker domains (recreated on next [pool ()]). *)

val par_iter : ('a -> unit) -> 'a list -> unit
val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Run over the shared pool; [par_map] preserves input order. *)

val prefetch : (unit -> unit) list -> unit
(** Execute a plan — the enumerated run set of a figure — through the
    pool.  Thunks typically force [trace]/[simulate] cache entries;
    the compute-once tables absorb duplicates between overlapping
    plans. *)

val prefetch_runs :
  months:Workload.Month_profile.t list ->
  (string * (Workload.Month_profile.t -> Sim.Run.t)) list ->
  unit
(** [prefetch_runs ~months policies] warms the run cache for the full
    (policy x month) grid of a figure panel. *)

val reset_caches : unit -> unit
(** Drop the trace/run caches and re-read the [REPRO_*] environment
    knobs on next use.  For harnesses that rerun experiments in-process
    (determinism tests, perf measurement); not needed in normal runs. *)

(** {2 What a run records}

    Three switches decide what every simulation computed into the run
    cache records, as {!Sim.Run.recorder}s: a {!Sim.Decision_log.t}
    (tracing), a {!Sim.Series.t} run-health sampler (series), both
    labelled by the policy key, and a {!Schedcheck.Report.t}
    (validation: differential for the EASY backfill family, by policy
    name; machine-level invariants otherwise).  The switches at request
    time are part of the run-cache key, so flipping one makes the next
    {!simulate} of a run compute it with the recording it now asks
    for.  The listings below give each run key at most once, sorted,
    so exports are byte-identical for every [jobs] setting. *)

val set_tracing : bool -> unit
val set_series : bool -> unit
val set_validation : bool -> unit

val traced_runs : unit -> (string * Sim.Decision_log.t) list
val series_runs : unit -> (string * Sim.Series.t) list
val validation_reports : unit -> (string * Schedcheck.Report.t) list
(** Cached runs carrying that recording, by run key
    (month/load/estimator/policy). *)

val pp_traces : Format.formatter -> unit
(** JSONL ([decision_trace/1]) of every traced cached run. *)

val chrome_trace_document : unit -> string
(** {!Sim.Decision_log.chrome_document} over every traced cached run. *)

val pp_series : Format.formatter -> unit
(** JSONL ([run_series/1]) of every sampled cached run. *)

(** {2 Export}

    The file writers of [schedsim] and the bench harness. *)

val write_file : string -> (Format.formatter -> unit) -> unit

val chrome_path : string -> string
(** Where the Chrome document goes next to a decision JSONL path: the
    path without its [.jsonl] suffix, plus [.chrome.json]. *)

val write_traces :
  jsonl:string -> chrome:string -> (string * Sim.Decision_log.t) list -> unit
(** The decision JSONL and the Chrome document of labelled logs. *)

val write_reports : string -> (string * Sim.Series.t) list -> int
(** [write_reports dir runs] writes into [dir] (created if missing) one
    report page per month/load/estimator cell of the run keys,
    overlaying its policies, a cross-cell [index.html] and the series
    JSONL [series.jsonl]; returns the number of pages. *)

val trace : Workload.Month_profile.t -> load -> Workload.Trace.t
(** Generated (and, for [Rho r], load-scaled) trace; memoized. *)

val simulate :
  policy_key:string ->
  policy:(unit -> Sched.Policy.t) ->
  r_star:Sim.Engine.r_star ->
  Workload.Month_profile.t ->
  load ->
  Sim.Run.t
(** Memoized simulation.  [policy_key] must uniquely identify the
    policy configuration; [policy] is forced only on a cache miss. *)

val fcfs_run :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> Sim.Run.t
(** The month's FCFS-backfill run (the reference for excessive-wait
    thresholds). *)

val fcfs_max_threshold :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> float
(** FCFS-backfill maximum wait of the month, seconds. *)

val fcfs_p98_threshold :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> float
(** FCFS-backfill 98th-percentile wait of the month, seconds. *)

val dds_lxf_dynb : budget:int -> unit -> Sched.Policy.t
(** Fresh instance of the paper's headline policy. *)

val search_policy : Core.Search_policy.config -> unit -> Sched.Policy.t

val section : Format.formatter -> id:string -> string -> unit
(** Print a section banner. *)

val row_header : Format.formatter -> string -> unit

val pp_month_columns :
  Format.formatter ->
  months:Workload.Month_profile.t list ->
  rows:(string * (Workload.Month_profile.t -> float)) list ->
  unit
(** Table with one column per month and one line per (label, value)
    row. *)
