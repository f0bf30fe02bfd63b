(** Bounded simulated-time run-health series.

    A sampler its {!observer} feeds at every decision point (decisions
    happen exactly at job arrivals and departures, so every completion
    instant is sampled too): busy nodes, waiting-queue length and
    core demand (backlog), running-job count, the longest current wait
    in the queue, and the cumulative excessive wait of started jobs.
    This is the system-level health signal behind the paper's
    Figures 2-8 — queue and backlog trajectories, utilization, and
    excess-wait accumulation over the month.

    Memory is fixed: the series holds at most [capacity] samples.
    When full it deterministically halves its resolution — adjacent
    samples merge pairwise (keeping the later sample's instantaneous
    values and the min/max envelope of both) and from then on one
    sample summarizes twice as many observations.  The committed
    samples are therefore a pure function of the observation sequence,
    so exports are byte-identical for any [REPRO_JOBS] / pool width,
    like every other experiment artifact (tested).

    Whole-run summaries ({!summary}) do not go through the bounded
    buffer at all: exact time-weighted averages and extremes come from
    {!Simcore.Stats.Timeline} accumulators fed at every observation. *)

type sample = {
  t : float;  (** time of the last observation merged into this sample *)
  span : int;  (** number of raw observations merged *)
  busy : int;  (** busy nodes at [t] *)
  busy_min : int;
  busy_max : int;
  queue : int;  (** waiting jobs at [t] *)
  queue_min : int;
  queue_max : int;
  demand : int;  (** nodes demanded by waiting jobs (backlog) at [t] *)
  demand_min : int;
  demand_max : int;
  running : int;  (** running jobs at [t] *)
  running_min : int;
  running_max : int;
  max_wait : float;  (** longest current wait in the queue at [t], s *)
  max_wait_min : float;
  max_wait_max : float;
  excess : float;
      (** cumulative excessive wait of jobs started by [t], seconds
          (non-decreasing across samples) *)
}

type t

val create :
  ?capacity:int -> ?threshold:float -> policy:string -> unit -> t
(** Series of at most [capacity] samples (default 4096; rounded down
    to an even number, clamped to >= 2).  [threshold] is the per-job
    wait (seconds) beyond which wait counts as excessive (default 0.0:
    all wait accumulates — policy-independent, unlike the paper's
    FCFS-derived E^max/E^98% thresholds, so trajectories of different
    policies compare directly). *)

val policy : t -> string
val capacity : t -> int
val threshold : t -> float

val observed : t -> int
(** Raw observations fed so far. *)

val stride : t -> int
(** Observations summarized per sample (doubles at each halving). *)

val length : t -> int
(** Committed samples ([<= capacity]).  The at most [stride - 1]
    newest observations still accumulating toward the next sample are
    not yet visible in {!samples}. *)

val samples : t -> sample list
(** Committed samples, oldest first. *)

val cumulative_excess : t -> float

val note_start : t -> wait:float -> unit
(** Account a started job's wait: [max 0 (wait - threshold)] joins the
    cumulative excessive wait. *)

val observe :
  t ->
  now:float ->
  busy:int ->
  queue:int ->
  demand:int ->
  running:int ->
  max_wait:float ->
  unit
(** Record one decision-point observation.  [now] must be
    non-decreasing across calls.
    @raise Invalid_argument if time goes backwards. *)

val observer : t -> Observer.t
(** Feed the series from a simulation: one {!observe} per decision
    point and one {!note_start} per started job. *)

(** {2 Summaries} *)

type summary = {
  label : string;  (** signal name: busy_nodes, queue_jobs, ... *)
  last : float;  (** value at the last observation *)
  avg : float;  (** time-weighted average over the observed span *)
  lo : float;  (** minimum over positive-duration spans *)
  hi : float;  (** maximum over positive-duration spans *)
}

val summary : t -> summary list
(** One row per signal (busy_nodes, queue_jobs, backlog_nodes,
    running_jobs, max_wait_s, excess_s), computed from the exact
    Timeline accumulators up to the last observation — unaffected by
    downsampling.  Empty list before the first observation. *)

(** {2 Export} *)

val schema : string
(** The JSONL schema identifier, ["run_series/1"]. *)

val pp_jsonl : ?run:string -> Format.formatter -> t -> unit
(** One [{"type":"run", ...}] header carrying the policy, observation
    and sample counts, stride and threshold, then one
    [{"type":"sample", ...}] line per committed sample.  [run] labels
    every line so multiple series can share one file (default [""]). *)
