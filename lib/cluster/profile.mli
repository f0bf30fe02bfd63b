(** Availability profile: free nodes as a step function of time.

    The profile is the shared substrate of both the backfill schedulers
    and the search policies' path builder: it answers "when is the
    earliest time a job of width [nodes] can run for [duration]?" and
    records tentative placements.

    Segment [i] spans [time i, time (i+1)) with [free i] nodes free;
    the last segment extends to infinity.  The representation is a pair
    of flat arrays and every operation mutates in place.  Tree search
    backtracks through a reverse-delta {e trail}: {!mark} the profile
    before a reservation, and {!undo_to} rolls back exactly the
    segments that reservation touched — O(touched), not O(segments).
    The snapshot path ({!copy_into}) remains available as an oracle.
    Both paths keep the hot loop allocation-free (trail buffers grow
    geometrically, off the hot path). *)

type t

val create : now:float -> capacity:int -> t
(** Fully-free machine from [now] onward. *)

val of_running :
  now:float -> capacity:int -> (float * int) list -> t
(** [of_running ~now ~capacity releases] builds the profile implied by
    the currently running jobs; [releases] are [(end_time, nodes)]
    pairs (estimated ends).  End times at or before [now] release
    immediately.  @raise Invalid_argument if running jobs oversubscribe
    the machine. *)

val capacity : t -> int
val segment_count : t -> int

val start_time : t -> float
(** Time at which the profile begins (the [now] it was built for). *)

val free_at : t -> float -> int
(** Free nodes at a given instant (>= start time). *)

val segments : t -> (float * int) list
(** [(start, free)] list for inspection and tests. *)

val earliest_start : t -> nodes:int -> duration:float -> float
(** First time [s >= start_time] such that at least [nodes] nodes are
    free during the whole of [\[s, s + duration)].
    @raise Invalid_argument if [nodes] exceeds capacity or
    [duration <= 0]. *)

val fits_at : t -> at:float -> nodes:int -> duration:float -> bool
(** Whether [nodes] nodes are free during [\[at, at + duration)]. *)

val place_earliest : t -> nodes:int -> duration:float -> float
(** Fused {!earliest_start} + {!reserve}: find the earliest feasible
    start, reserve there, and return the start time — one pass over
    the profile, no re-location, and (starts being segment boundaries)
    no start-side split.  Equivalent to
    [let s = earliest_start t ... in reserve t ~at:s ...; s].
    The search hot path. *)

val stage_duration : t -> float -> unit
(** Stage the duration for {!place_earliest_staged}.  One expression,
    so it inlines at call sites and the float crosses without being
    boxed. *)

val place_earliest_staged : t -> nodes:int -> unit
(** Exactly {!place_earliest} with the duration read from
    {!stage_duration} and the start time delivered through
    {!staged_start}.  This staged triple exists for the innermost
    search loop: float arguments and results of out-of-line calls are
    boxed, and at millions of nodes per decision those allocations
    dominate.  Anywhere else, call {!place_earliest}. *)

val staged_start : t -> float
(** Start time chosen by the last {!place_earliest_staged}. *)

val reserve : t -> at:float -> nodes:int -> duration:float -> unit
(** Subtract [nodes] from the free count during [\[at, at+duration)].
    Merges equal-free neighbours locally (O(segments touched), no full
    renormalization); when trailing is on, every mutation is recorded
    so the reservation can be undone exactly.
    @raise Invalid_argument if this would drive any segment negative
    (i.e. the caller did not check {!fits_at} / {!earliest_start}). *)

(** {2 Trail-based backtracking}

    Discipline: take a {!mark} before each reservation and {!undo_to}
    the marks in reverse (LIFO) order — exactly the shape of a
    depth-first search.  Recording starts at the first [mark]; profiles
    that never mark (the backfill engines) pay one branch per mutation
    and nothing else. *)

type mark = int
(** A position on the undo trail, as returned by {!mark}.  Mark [0] is
    the state at the first {!mark} call. *)

val mark : t -> mark
(** Enable trailing (idempotent) and return the current trail
    position. *)

val undo_to : t -> mark -> unit
(** Roll back every mutation recorded since the mark was taken, in
    reverse order.  Cost is proportional to the number of recorded
    mutations, i.e. to the segments touched — not to the profile size.
    @raise Invalid_argument if the mark is not on the current trail
    (e.g. already undone past, or invalidated by {!copy_into}). *)

val trail_length : t -> int
(** Number of recorded mutations (0 when trailing is off or fully
    undone).  For tests and instrumentation. *)

val copy : ?reuse:t -> t -> t
(** Independent copy of the segments.  The copy starts with an empty
    trail and trailing off.  [reuse], a profile that is no longer used,
    lends its trail buffers — the one part of a search's profile that
    grows with the path length — so that a copy per decision does not
    allocate them again. *)

val copy_into : src:t -> dst:t -> unit
(** Restore [dst] to the state of [src]; both must share a capacity.
    Grows [dst]'s buffers if needed.  Clears [dst]'s trail and turns
    trailing off: marks taken before a [copy_into] are invalid. *)

val make_room : t -> int -> unit
(** [make_room t room] grows [t]'s buffers, if needed, so that [room]
    more trailed {!place_earliest} reservations and their undo fit
    without growing them again: nothing is allocated after it. *)

val pp : Format.formatter -> t -> unit
(** Render the step function, e.g. ["[0s:12 3600s:64 7200s:128]"]. *)

val invariant : t -> bool
(** Structural invariant: times strictly increasing, free counts within
    [\[0, capacity\]], adjacent segments with equal free counts merged.
    Used by tests. *)
