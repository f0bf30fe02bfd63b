type algorithm = Dfs | Lds | Lds_original | Dds

let algorithm_name = function
  | Dfs -> "dfs"
  | Lds -> "lds"
  | Lds_original -> "lds0"
  | Dds -> "dds"

type result = {
  best : Objective.t;
  best_order : int array;
  best_starts : float array;
  nodes_visited : int;
  leaves_evaluated : int;
  iterations : int;
  exhausted : bool;
}

exception Budget_spent

type driver = {
  state : Search_state.t;
  algorithm : algorithm;
  n : int;
  budget : int;
  prune : bool;
  probe : Simcore.Probe.t option;
  mutable enforce_budget : bool;
  mutable forced : int;  (* DDS: choice-depth of the forced discrepancy *)
  mutable cur_iter : int;  (* discrepancy iteration being explored *)
  mutable best : Objective.t option;
  mutable best_order : int array;
  mutable best_starts : float array;
  mutable leaves : int;
}

let record_leaf d =
  let obj = Search_state.leaf_objective d.state in
  d.leaves <- d.leaves + 1;
  let better =
    match d.best with
    | None -> true
    | Some incumbent -> Objective.is_better ~candidate:obj ~incumbent
  in
  if better then begin
    d.best <- Some obj;
    for depth = 0 to d.n - 1 do
      d.best_order.(depth) <- Search_state.chosen d.state ~depth;
      d.best_starts.(depth) <- Search_state.start_at d.state ~depth
    done;
    (* Probe sampling happens only here — an incumbent improvement
       at a leaf — never per node; writes into a preallocated record. *)
    match d.probe with
    | None -> ()
    | Some p ->
        p.Simcore.Probe.improvements <- p.Simcore.Probe.improvements + 1;
        p.winner_iteration <- d.cur_iter;
        p.winner_depth <-
          (if d.algorithm = Dds && d.cur_iter >= 1 then d.forced else -1)
  end

let check_budget d =
  if d.enforce_budget && Search_state.nodes_visited d.state >= d.budget then
    raise Budget_spent

(* Branch-and-bound: a partial schedule is hopeless when its excess
   already exceeds the incumbent's, or ties it while even the best
   possible completion (the minimum per-job secondary contribution for
   each remaining job) cannot beat the incumbent's secondary sum. *)
let hopeless d ~depth =
  d.prune
  &&
  match d.best with
  | None -> false
  | Some best ->
      let partial = Search_state.partial d.state ~depth in
      let remaining = d.n - depth - 1 in
      if partial.Objective.excess > best.Objective.excess +. 1e-9 then true
      else if partial.Objective.excess < best.Objective.excess -. 1e-9 then
        false
      else
        partial.Objective.secondary_sum
        +. (float_of_int remaining
           *. Objective.min_contribution (Search_state.secondary d.state))
        >= best.Objective.secondary_sum -. 1e-9

(* Leaf visit: evaluate unless the bound prunes it.  Off the hot path
   (one leaf per [n] interior nodes). *)
let at_leaf d ~depth = if not (hopeless d ~depth) then record_leaf d

(* Each algorithm below inlines the same visit body — budget check,
   place, recurse-or-evaluate, unplace — instead of sharing it through
   a continuation parameter: a function-valued argument costs an
   indirect [caml_apply] per node, and these recursions are the
   innermost loop of the whole reproduction.  Children of a node are
   exactly the unused jobs, walked in increasing index order via
   {!Search_state.first_unused} / {!Search_state.next_unused}; the
   walk is stable across a visit because unplace restores the links it
   removed.  Nothing here allocates per node. *)

(* The pure heuristic path: rank 0 at every depth. *)
let rec heur_go d depth =
  let job = Search_state.first_unused d.state in
  if job < d.n then begin
    check_budget d;
    Search_state.place d.state ~depth ~job;
    if depth = d.n - 1 then at_leaf d ~depth
    else if not (hopeless d ~depth) then heur_go d (depth + 1);
    Search_state.unplace d.state ~depth
  end

let heuristic_path d = heur_go d 0

(* Original LDS iteration k (Harvey & Ginsberg): all paths with at
   most [k] discrepancies, left to right — earlier iterations' paths
   are re-visited, spending budget on repeats. *)
let rec lds0_go d depth remaining =
  lds0_each d depth remaining (Search_state.first_unused d.state) 0

and lds0_each d depth remaining job rank =
  if job < d.n then begin
    let cost = if rank = 0 then 0 else 1 in
    if cost <= remaining then begin
      check_budget d;
      Search_state.place d.state ~depth ~job;
      if depth = d.n - 1 then at_leaf d ~depth
      else if not (hopeless d ~depth) then
        lds0_go d (depth + 1) (remaining - cost);
      Search_state.unplace d.state ~depth
    end;
    lds0_each d depth remaining (Search_state.next_unused d.state job)
      (rank + 1)
  end

let lds_original_iteration d k = lds0_go d 0 (min k (d.n - 1))

(* LDS iteration k: all paths with exactly [k] discrepancies, explored
   left to right.  Only descend if the remaining discrepancies can
   still be consumed strictly below: one per level with >= 2
   children. *)
let rec lds_go d depth remaining =
  lds_each d depth remaining (Search_state.first_unused d.state) 0

and lds_each d depth remaining job rank =
  if job < d.n then begin
    let cost = if rank = 0 then 0 else 1 in
    let max_below = Stdlib.max 0 (d.n - 2 - depth) in
    if cost <= remaining && remaining - cost <= max_below then begin
      check_budget d;
      Search_state.place d.state ~depth ~job;
      if depth = d.n - 1 then at_leaf d ~depth
      else if not (hopeless d ~depth) then
        lds_go d (depth + 1) (remaining - cost);
      Search_state.unplace d.state ~depth
    end;
    lds_each d depth remaining (Search_state.next_unused d.state job)
      (rank + 1)
  end

let lds_iteration d k = if k <= d.n - 1 then lds_go d 0 k

(* DDS iteration i >= 1: any child above choice-depth [d.forced], a
   forced discrepancy at [d.forced], heuristic only below. *)
let rec dds_go d depth =
  if depth < d.forced then
    dds_each d depth (Search_state.first_unused d.state)
  else if depth = d.forced then begin
    (* ranks 1 and up: skip the heuristic child *)
    let job = Search_state.first_unused d.state in
    if job < d.n then dds_each d depth (Search_state.next_unused d.state job)
  end
  else begin
    let job = Search_state.first_unused d.state in
    if job < d.n then begin
      check_budget d;
      Search_state.place d.state ~depth ~job;
      if depth = d.n - 1 then at_leaf d ~depth
      else if not (hopeless d ~depth) then dds_go d (depth + 1);
      Search_state.unplace d.state ~depth
    end
  end

and dds_each d depth job =
  if job < d.n then begin
    check_budget d;
    Search_state.place d.state ~depth ~job;
    if depth = d.n - 1 then at_leaf d ~depth
    else if not (hopeless d ~depth) then dds_go d (depth + 1);
    Search_state.unplace d.state ~depth;
    dds_each d depth (Search_state.next_unused d.state job)
  end

let dds_iteration d i =
  d.forced <- i - 1;
  (* a discrepancy needs >= 2 children at the forced depth *)
  if d.forced <= d.n - 2 then dds_go d 0

let rec dfs_go d depth =
  dfs_each d depth (Search_state.first_unused d.state)

and dfs_each d depth job =
  if job < d.n then begin
    check_budget d;
    Search_state.place d.state ~depth ~job;
    if depth = d.n - 1 then at_leaf d ~depth
    else if not (hopeless d ~depth) then dfs_go d (depth + 1);
    Search_state.unplace d.state ~depth;
    dfs_each d depth (Search_state.next_unused d.state job)
  end

let dfs_all d = dfs_go d 0

let run ?(prune = false) ?probe algorithm ~budget state =
  let n = Search_state.job_count state in
  if n = 0 then invalid_arg "Search.run: no waiting jobs";
  Option.iter Simcore.Probe.reset probe;
  let d =
    {
      state;
      algorithm;
      n;
      budget;
      prune;
      probe;
      enforce_budget = false;
      forced = 0;
      cur_iter = 0;
      best = None;
      best_order = Array.make n (-1);
      best_starts = Array.make n 0.0;
      leaves = 0;
    }
  in
  (* Iteration 0 (the heuristic path) ignores the budget so the policy
     always has a complete schedule to fall back on. *)
  heuristic_path d;
  d.enforce_budget <- true;
  let iterations = ref 1 in
  let exhausted = ref false in
  begin
    try
      begin
        match algorithm with
        | Dfs ->
            (* The heuristic path was already visited; plain DFS re-walks
               it (its node count includes the repeat, as in any restart
               strategy). *)
            d.cur_iter <- 1;
            dfs_all d
        | Lds ->
            for k = 1 to n - 1 do
              d.cur_iter <- k;
              lds_iteration d k;
              incr iterations
            done
        | Lds_original ->
            for k = 1 to n - 1 do
              d.cur_iter <- k;
              lds_original_iteration d k;
              incr iterations
            done
        | Dds ->
            for i = 1 to n - 1 do
              d.cur_iter <- i;
              dds_iteration d i;
              incr iterations
            done
      end;
      exhausted := true
    with Budget_spent -> Search_state.reset state
  end;
  match d.best with
  | None -> assert false (* iteration 0 always records a leaf *)
  | Some best ->
      (match probe with
      | None -> ()
      | Some p ->
          p.Simcore.Probe.nodes <-
            Search_state.nodes_visited state;
          p.leaves <- d.leaves;
          p.iterations <- !iterations;
          p.budget <- budget;
          p.exhausted <- !exhausted);
      {
        best;
        best_order = d.best_order;
        best_starts = d.best_starts;
        nodes_visited = Search_state.nodes_visited state;
        leaves_evaluated = d.leaves;
        iterations = !iterations;
        exhausted = !exhausted;
      }
