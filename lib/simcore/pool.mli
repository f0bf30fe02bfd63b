(** Fixed-size domain work pool, and the process-wide one.

    A pool spawns [jobs - 1] worker domains once at [create] and reuses
    them across any number of batches; the calling domain participates
    in every batch, so a pool of [jobs = n] runs at most [n] work items
    concurrently.  With [jobs = 1] no domain is ever spawned and
    [run]/[map]/[iter] degenerate to plain in-order sequential
    execution in the caller — bit-for-bit the pre-pool behaviour.

    Work items must not depend on execution order (they may run in any
    interleaving), but [map] always returns results in input order.

    A pool runs one batch at a time.  A batch posted while another is
    running — from inside one of that batch's tasks, or from another
    domain — does not wait: it runs inline in the caller, in index
    order.  Nested use (a simulation running as a pool task whose
    policy posts to the same pool) therefore never deadlocks, and it
    costs nothing beyond running the work sequentially.

    The pool itself performs no I/O and draws no randomness; combined
    with item-order-independent work (e.g. seed-deterministic
    simulations memoized by key) results are identical for every value
    of [jobs].  With tracing off, a worker domain allocates nothing per
    batch: what it allocates is what the tasks allocate. *)

type t

module Span : sig
  type t = {
    domain : int;  (** draining slot: 0 = submitting domain, 1.. = workers *)
    batch : int;  (** batch sequence number (per pool) *)
    task : int;  (** task index within the batch *)
    posted_s : float;  (** monotonic time the batch was posted *)
    start_s : float;  (** monotonic time the task started running *)
    stop_s : float;  (** monotonic time the task finished *)
  }

  val wait_s : t -> float
  (** Queue wait: batch post to task start. *)

  val busy_s : t -> float
end

val create : jobs:int -> t
(** [create ~jobs] spawns [max jobs 1 - 1] worker domains.  The pool
    must eventually be released with [shutdown] (idle workers block in
    a condition wait; they cost nothing but stay alive until then). *)

val jobs : t -> int
(** Concurrency width, including the calling domain; >= 1. *)

val idle : t -> bool
(** The pool could fan a batch out right now: it is wider than 1, not
    shut down, and no batch is running.  A hint read without the lock;
    a batch posted after a stale [true] still runs correctly (inline). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to >= 1: the caller
    takes part in every batch, so this many runners keep every
    recommended core busy. *)

val run : t -> int -> (int -> int -> unit) -> unit
(** [run t n f] runs [f who 0] .. [f who (n - 1)] as one batch and
    returns when all have finished.  [who] is the runner executing the
    task: 0 for the calling domain (and for every task of an inline
    batch), [1 .. jobs t - 1] for the worker domains; no two tasks run
    concurrently under the same [who], so per-runner scratch state
    needs no locking.  If one or more raise, the rest still run to
    completion, then the exception of the lowest-indexed failing item
    is re-raised (with its original backtrace) in the caller.
    @raise Invalid_argument after [shutdown]. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map t ~f xs] applies [f] to every element of [xs] as one batch and
    returns the results in input order; exceptions as in [run]. *)

val iter : t -> f:('a -> unit) -> 'a list -> unit
(** [iter t ~f xs] is [map] with unit results. *)

val set_tracing : t -> bool -> unit
(** Turn per-task span recording on or off (initially off).  With
    tracing off the per-task overhead is one boolean test; with it on,
    each task of a fanned-out batch records a {!Span.t} (wall-clock,
    so spans are inspection data — they are {e not} part of the
    deterministic output surface).  Inline batches record no spans. *)

val spans : t -> Span.t list
(** Recorded spans in (batch, task) order — deterministic listing
    order even though the times inside are wall-clock. *)

val clear_spans : t -> unit

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Subsequent
    [run]/[map]/[iter] calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'r) -> 'r
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down
    afterwards, also on exception. *)

(** {2 The process-wide pool}

    One pool per process, shared by the experiment harness (which runs
    whole simulations on it) and the search policies (which split a
    large tree search across it).  Its width is read once from the
    [REPRO_JOBS] environment variable (default {!default_jobs}) unless
    {!set_shared_jobs} overrides it; the pool itself is created on the
    first {!shared} call, so a process that never asks spawns no
    domain.  Safe to call from any domain. *)

val shared_jobs : unit -> int
(** The shared pool's width; does not create the pool. *)

val set_shared_jobs : int -> unit
(** Override the width (clamped to >= 1); if it changed, shuts the
    current shared pool down so that the next {!shared} creates one of
    the new width. *)

val shared : unit -> t
(** The shared pool, created on first use. *)

val shutdown_shared : unit -> unit
(** Join the shared pool's worker domains; the next {!shared} creates
    a new pool. *)
