(** Per-decision search-effort record.

    A caller-owned mutable record that a search fills at
    iteration/leaf boundaries (see [Core.Search.run ?probe]).  The
    search overwrites every field on each run, so one preallocated
    probe can be reused across all decisions of a simulation; reading
    it is only meaningful between runs.  Recording never allocates
    (tested); "off" is simply not passing a probe. *)

type t = {
  mutable nodes : int;  (** nodes visited by the last search *)
  mutable leaves : int;  (** complete schedules evaluated *)
  mutable iterations : int;  (** completed discrepancy iterations *)
  mutable budget : int;  (** the node budget L the search ran under *)
  mutable exhausted : bool;  (** whole tree explored within budget *)
  mutable improvements : int;
      (** number of incumbent improvements (>= 1: the heuristic path
          always records a first incumbent) *)
  mutable winner_iteration : int;
      (** discrepancy iteration that produced the final incumbent
          (0 = the pure heuristic path) *)
  mutable winner_depth : int;
      (** DDS: choice-depth of the forced discrepancy of the winning
          iteration; -1 for iteration 0 and for non-DDS algorithms *)
}

val create : unit -> t
val reset : t -> unit
