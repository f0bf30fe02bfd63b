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

(* The incumbent's objective components.  An all-float record is
   stored flat, so replacing the incumbent writes two floats and
   allocates nothing; its job count is always [n]. *)
type incumbent = { mutable excess : float; mutable secondary_sum : float }

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
  mutable have_best : bool;
  best : incumbent;
  best_order : int array;
  best_starts : float array;
  mutable leaves : int;
}

let[@inline] improves d ~excess ~secondary_sum =
  (not d.have_best)
  || Objective.is_better_unboxed ~jobs:d.n ~excess ~secondary_sum
       ~than_excess:d.best.excess ~than_secondary_sum:d.best.secondary_sum

let[@inline] take_incumbent d ~excess ~secondary_sum =
  d.have_best <- true;
  d.best.excess <- excess;
  d.best.secondary_sum <- secondary_sum

let record_leaf d =
  let excess = Search_state.leaf_excess d.state in
  let secondary_sum = Search_state.leaf_secondary d.state in
  d.leaves <- d.leaves + 1;
  if improves d ~excess ~secondary_sum then begin
    take_incumbent d ~excess ~secondary_sum;
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
  d.prune && d.have_best
  &&
  let best = d.best in
  let partial = Search_state.partial d.state ~depth in
  let remaining = d.n - depth - 1 in
  if partial.Objective.excess > best.excess +. 1e-9 then true
  else if partial.Objective.excess < best.excess -. 1e-9 then false
  else
    partial.Objective.secondary_sum
    +. (float_of_int remaining
       *. Objective.min_contribution (Search_state.secondary d.state))
    >= best.secondary_sum -. 1e-9

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

(* ------------------------------------------------------------------ *)
(* DDS split across a pool                                             *)

(* Without branch-and-bound, which nodes a DDS iteration visits depends
   only on [n] and the iteration, never on the profile, so node and
   leaf counts have a closed form and the budget cut-off can be placed
   before the walk starts.  The nodes after iteration 0, iterations
   1, 2, ... in DFS order, are numbered by position and cut into
   contiguous chunks; each runner (one per domain of the pool) claims
   chunks, walks them on its own state, and logs every leaf's
   objective components at the leaf's place in DFS order; the caller
   then folds [is_better] over all leaves in that order.  Counts
   saturate at [count_cap]: a subtree whose count saturated is larger
   than any budget, so it is never skipped wrongly. *)

let count_cap = max_int / 4
let sat_add a b = if a >= count_cap - b then count_cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > count_cap / b then count_cap else a * b

(* Children a DDS node at choice-depth [k - 1] has at depth [k] in the
   iteration whose forced discrepancy is at [forced]: any unused job
   above it, the ranks >= 1 at it, the heuristic child below. *)
let children ~n ~forced k =
  if k < forced then n - k else if k = forced then n - k - 1 else 1

(* Fill [sizes.(d)] / [leaves.(d)] with the node and leaf counts of the
   subtree under a node placed at depth [d]; returns the iteration's
   node count. *)
let fill_counts ~n ~forced sizes leaves =
  for d = n - 1 downto 0 do
    if d >= forced then begin
      sizes.(d) <- n - d;
      leaves.(d) <- 1
    end
    else begin
      let c = children ~n ~forced (d + 1) in
      sizes.(d) <- sat_add 1 (sat_mul c sizes.(d + 1));
      leaves.(d) <- sat_mul c leaves.(d + 1)
    end
  done;
  sat_mul (children ~n ~forced 0) sizes.(0)

(* A runner is one domain's share of the machinery: the cursor of the
   iteration it is walking and the closed-form tables of that
   iteration.  Reused across decisions and grown only by the caller,
   so a runner's walk allocates nothing.  The runners of a workspace
   sit next to each other in the heap and each is written by its own
   domain at every node: the eight cold words in front keep one
   runner's fields off the cache lines of its neighbour's (the split
   measured slower without them). *)
type runner = {
  pad0 : int; pad1 : int; pad2 : int; pad3 : int;
  pad4 : int; pad5 : int; pad6 : int; pad7 : int;
  mutable n : int;
  mutable forced : int;
  mutable pos : int;  (* position of the next node in the iteration *)
  mutable leaf_pos : int;  (* index of the next leaf in the iteration *)
  mutable from : int;  (* the iteration's share of the chunk, [from, upto) *)
  mutable upto : int;
  mutable at : int;  (* where the next leaf goes in the log *)
  mutable sizes : int array;
  mutable leaf_counts : int array;
  mutable log_excess : float array;
  mutable log_secondary : float array;
}

(* A chunk is a contiguous run of positions [lo, hi), walked by
   whichever runner claims it; its leaves go to the log from index
   [lo] on (a run holds at most as many leaves as nodes).  One segment
   per iteration the chunk touches: the iteration, the log index of
   its first leaf, and that leaf's index within the iteration. *)
type chunk = {
  mutable lo : int;
  mutable hi : int;
  mutable logged : int;
  mutable segments : int;
  mutable seg_iter : int array;
  mutable seg_start : int array;
  mutable seg_leaf : int array;
}

(* A calling domain's split state.  [iter_start.(i)] is the position of
   iteration [i]'s first node.  [replicas.(r)] is the state runner [r]
   walks; the next decision's replica takes over its trail buffers. *)
type workspace = {
  mutable runners : runner array;
  mutable chunks : chunk array;
  mutable iter_start : int array;
  mutable replicas : Search_state.t array;
  mutable log_excess : float array;
  mutable log_secondary : float array;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { runners = [||]; chunks = [||]; iter_start = [||]; replicas = [||];
        log_excess = [||]; log_secondary = [||] })

let new_runner () =
  { pad0 = 0; pad1 = 0; pad2 = 0; pad3 = 0; pad4 = 0; pad5 = 0; pad6 = 0;
    pad7 = 0; n = 0; forced = 0; pos = 0; leaf_pos = 0; from = 0; upto = 0;
    at = 0; sizes = [||]; leaf_counts = [||]; log_excess = [||];
    log_secondary = [||] }

let new_chunk () =
  { lo = 0; hi = 0; logged = 0; segments = 0; seg_iter = [||];
    seg_start = [||]; seg_leaf = [||] }

let grow arr len fresh =
  if Array.length arr >= len then arr
  else Array.init len (fun k -> if k < Array.length arr then arr.(k) else fresh ())

(* Size [ws] for [n] jobs, [planned] positions and [runners] runners.
   Everything here persists across decisions. *)
let prepare ws ~n ~planned ~runners =
  if Array.length ws.iter_start < n + 1 then
    ws.iter_start <- Array.make (n + 1) 0;
  if Array.length ws.log_excess < planned then begin
    (* doubling: a run's first decisions grow the log only a few times *)
    let capacity = Stdlib.max planned (2 * Array.length ws.log_excess) in
    ws.log_excess <- Array.make capacity 0.0;
    ws.log_secondary <- Array.make capacity 0.0
  end;
  ws.runners <- grow ws.runners runners new_runner;
  for k = 0 to runners - 1 do
    let r = ws.runners.(k) in
    if Array.length r.sizes < n then begin
      r.sizes <- Array.make n 0;
      r.leaf_counts <- Array.make n 0
    end;
    r.n <- n;
    r.log_excess <- ws.log_excess;
    r.log_secondary <- ws.log_secondary
  done

(* Cut positions [0, planned) into chunks, claimed in order by whichever
   runner is free: each chunk takes 1/(2 runners) of what is left, and
   never fewer than [min_chunk] nodes.  Large chunks first keep the
   per-chunk cost (a descent from the root, a claim) low; small ones
   last leave little for the other runners to wait on when a runner
   starts late (a helper waking up) or walks a slower part of the
   tree.  Returns the number of chunks. *)
let min_chunk = 128

let cut_chunks ws ~n ~planned ~runners =
  let count = ref 0 and pos = ref 0 in
  while !pos < planned do
    let size = Stdlib.max min_chunk ((planned - !pos) / (2 * runners)) in
    let hi = Stdlib.min planned (!pos + size) in
    ws.chunks <- grow ws.chunks (!count + 1) new_chunk;
    let ch = ws.chunks.(!count) in
    if Array.length ch.seg_iter < n then begin
      ch.seg_iter <- Array.make n 0;
      ch.seg_start <- Array.make n 0;
      ch.seg_leaf <- Array.make n 0
    end;
    ch.lo <- !pos;
    ch.hi <- hi;
    pos := hi;
    incr count
  done;
  !count

(* The replicas the runners walk for this decision.  A replica's record
   is written at every node (its node counter) by its own domain, and
   the records are allocated back to back: a dead block in front of
   each keeps neighbours two cache lines apart. *)
let load_replicas ws state ~runners =
  let have = Array.length ws.replicas in
  ws.replicas <-
    Array.init runners (fun k ->
        ignore (Sys.opaque_identity (Array.make 16 0));
        Search_state.replica
          ?into:(if k < have then Some ws.replicas.(k) else None)
          state)

exception Chunk_end

(* The DDS kernel of [dds_go]/[dds_each] with the budget check replaced
   by the chunk's bounds: subtrees that end before [from] are skipped
   whole by their closed-form counts, the walk stops before placing
   position [upto], and each leaf is logged instead of judged. *)
let rec split_go r st depth =
  let first = Search_state.first_unused st in
  if depth < r.forced then split_each r st depth first true
  else if depth = r.forced then begin
    if first < r.n then
      split_each r st depth (Search_state.next_unused st first) true
  end
  else split_each r st depth first false

and split_each r st depth job siblings =
  if job < r.n then begin
    let size = r.sizes.(depth) in
    if r.pos + size <= r.from then begin
      r.pos <- r.pos + size;
      r.leaf_pos <- r.leaf_pos + r.leaf_counts.(depth)
    end
    else begin
      if r.pos >= r.upto then raise_notrace Chunk_end;
      Search_state.place st ~depth ~job;
      r.pos <- r.pos + 1;
      if depth = r.n - 1 then begin
        r.log_excess.(r.at) <- Search_state.leaf_excess st;
        r.log_secondary.(r.at) <- Search_state.leaf_secondary st;
        r.at <- r.at + 1;
        r.leaf_pos <- r.leaf_pos + 1
      end
      else split_go r st (depth + 1);
      Search_state.unplace st ~depth
    end;
    if siblings then
      split_each r st depth (Search_state.next_unused st job) siblings
  end

(* Task [c], run by runner [who]: walk chunk [c] iteration by
   iteration on the runner's replica, which it leaves unplaced. *)
let walk_chunk ws who c =
  let r = ws.runners.(who) and st = ws.replicas.(who) and ch = ws.chunks.(c) in
  r.at <- ch.lo;
  ch.segments <- 0;
  let i = ref 1 in
  while ws.iter_start.(!i + 1) <= ch.lo do
    incr i
  done;
  while !i < r.n && ws.iter_start.(!i) < ch.hi do
    let start = ws.iter_start.(!i) in
    ignore (fill_counts ~n:r.n ~forced:(!i - 1) r.sizes r.leaf_counts : int);
    r.forced <- !i - 1;
    r.pos <- 0;
    r.leaf_pos <- 0;
    r.from <- (if ch.lo > start then ch.lo - start else 0);
    r.upto <- ch.hi - start;
    let s = ch.segments in
    ch.seg_iter.(s) <- !i;
    ch.seg_start.(s) <- r.at;
    (try split_go r st 0 with Chunk_end -> Search_state.reset st);
    ch.seg_leaf.(s) <- r.leaf_pos - (r.at - ch.seg_start.(s));
    ch.segments <- s + 1;
    incr i
  done;
  ch.logged <- r.at - ch.lo

(* Place the path of leaf [leaf] of DDS iteration [forced + 1] on [st],
   by the closed-form leaf counts in [leaf_counts]. *)
let rec replay st ~n ~forced leaf_counts depth leaf =
  if depth < n then begin
    let first = Search_state.first_unused st in
    let job = if depth = forced then Search_state.next_unused st first else first in
    replay_pick st ~n ~forced leaf_counts depth job leaf
  end

and replay_pick st ~n ~forced leaf_counts depth job leaf =
  let c = leaf_counts.(depth) in
  if leaf >= c then
    replay_pick st ~n ~forced leaf_counts depth
      (Search_state.next_unused st job) (leaf - c)
  else begin
    Search_state.place st ~depth ~job;
    replay st ~n ~forced leaf_counts (depth + 1) leaf
  end

(* Walk positions [0, planned) on [pool], fold the leaves into [d]'s
   incumbent and replay the winner's path into [d]'s best path. *)
let share_out (d : driver) pool ws ~planned ~runners =
  let n = d.n and state = d.state in
  prepare ws ~n ~planned ~runners;
  let chunks = cut_chunks ws ~n ~planned ~runners in
  load_replicas ws state ~runners;
  Simcore.Pool.run pool chunks (walk_chunk ws);
  (* The fold runs over every leaf in DFS order: [is_better]'s
     tolerance is not transitive, so per-chunk winners cannot be
     merged instead. *)
  let improvements = ref 0 and win_iter = ref 0 and win_leaf = ref 0 in
  for c = 0 to chunks - 1 do
    let ch = ws.chunks.(c) in
    d.leaves <- d.leaves + ch.logged;
    for s = 0 to ch.segments - 1 do
      let stop =
        if s + 1 < ch.segments then ch.seg_start.(s + 1) else ch.lo + ch.logged
      in
      for j = ch.seg_start.(s) to stop - 1 do
        let excess = ws.log_excess.(j) and secondary_sum = ws.log_secondary.(j) in
        if improves d ~excess ~secondary_sum then begin
          take_incumbent d ~excess ~secondary_sum;
          incr improvements;
          win_iter := ch.seg_iter.(s);
          win_leaf := ch.seg_leaf.(s) + (j - ch.seg_start.(s))
        end
      done
    done
  done;
  if !improvements > 0 then begin
    let forced = !win_iter - 1 in
    let plan = ws.runners.(0) in
    ignore (fill_counts ~n ~forced plan.sizes plan.leaf_counts : int);
    replay state ~n ~forced plan.leaf_counts 0 !win_leaf;
    for depth = n - 1 downto 0 do
      d.best_order.(depth) <- Search_state.chosen state ~depth;
      d.best_starts.(depth) <- Search_state.start_at state ~depth;
      Search_state.unplace state ~depth
    done;
    match d.probe with
    | None -> ()
    | Some p ->
        p.Simcore.Probe.improvements <-
          p.Simcore.Probe.improvements + !improvements;
        p.winner_iteration <- !win_iter;
        p.winner_depth <- forced
  end

(* DDS after iteration 0 on [pool].  Leaves [d] and the state exactly
   as the sequential loop would and returns (iterations, exhausted) —
   or [None], touching nothing, when the budget and the tree are both
   too large to number (the sequential loop would not finish either). *)
let split_dds (d : driver) pool =
  let n = d.n and state = d.state in
  let ws = Domain.DLS.get workspace_key in
  let runners = Simcore.Pool.jobs pool in
  prepare ws ~n ~planned:0 ~runners;
  let plan = ws.runners.(0) in
  (* positions the budget leaves after iteration 0, and where each
     iteration starts, until the budget or the tree runs out *)
  let base = Search_state.nodes_visited state in
  let room = d.budget - base in
  let last = ref 0 in
  ws.iter_start.(1) <- 0;
  while !last < n - 1 && ws.iter_start.(!last + 1) < room do
    incr last;
    let nodes = fill_counts ~n ~forced:(!last - 1) plan.sizes plan.leaf_counts in
    ws.iter_start.(!last + 1) <- sat_add ws.iter_start.(!last) nodes
  done;
  let exhausted = !last = n - 1 && ws.iter_start.(n) <= room in
  let planned = if exhausted then ws.iter_start.(n) else Stdlib.max 0 room in
  if planned >= count_cap then None
  else begin
    let iterations = ref 1 in
    for i = 1 to !last do
      if ws.iter_start.(i + 1) <= planned then incr iterations
    done;
    if planned > 0 then share_out d pool ws ~planned ~runners;
    Search_state.set_nodes_visited state (base + planned);
    if not exhausted then Search_state.reset state;
    Some (!iterations, exhausted)
  end

(* Iterations 1 and up of [d]'s algorithm, on this domain; returns
   (iterations, exhausted). *)
let sequential (d : driver) =
  let n = d.n and state = d.state in
  let iterations = ref 1 in
  try
    begin
      match d.algorithm with
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
    (!iterations, true)
  with Budget_spent ->
    Search_state.reset state;
    (!iterations, false)

let run ?(prune = false) ?probe ?pool algorithm ~budget state =
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
      have_best = false;
      best = { excess = 0.0; secondary_sum = 0.0 };
      best_order = Array.make n (-1);
      best_starts = Array.make n 0.0;
      leaves = 0;
    }
  in
  (* Iteration 0 (the heuristic path) ignores the budget so the policy
     always has a complete schedule to fall back on. *)
  heuristic_path d;
  d.enforce_budget <- true;
  let iterations, exhausted =
    match pool with
    | Some pool
      when algorithm = Dds && (not prune) && n >= 2
           && Search_state.replicable state -> (
        match split_dds d pool with
        | Some outcome -> outcome
        | None -> sequential d)
    | _ -> sequential d
  in
  let nodes = Search_state.nodes_visited state in
  (match probe with
  | None -> ()
  | Some p ->
      p.Simcore.Probe.nodes <- nodes;
      p.leaves <- d.leaves;
      p.iterations <- iterations;
      p.budget <- budget;
      p.exhausted <- exhausted);
  {
    best =
      { Objective.excess = d.best.excess; secondary_sum = d.best.secondary_sum;
        jobs = n };
    best_order = d.best_order;
    best_starts = d.best_starts;
    nodes_visited = nodes;
    leaves_evaluated = d.leaves;
    iterations;
    exhausted;
  }

(* Nodes a DDS run would hand to a pool: the budget left after the
   heuristic path, capped by the tree. *)
let split_nodes ?(prune = false) algorithm ~budget n =
  if algorithm <> Dds || prune || n < 2 || budget <= n then 0
  else begin
    let sizes = Array.make n 0 and leaves = Array.make n 0 in
    let room = budget - n in
    let rec sum i acc =
      if i > n - 1 || acc >= room then Stdlib.min acc room
      else sum (i + 1) (sat_add acc (fill_counts ~n ~forced:(i - 1) sizes leaves))
    in
    sum 1 0
  end
