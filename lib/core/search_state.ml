type backtrack = Trail | Snapshot

type t = {
  now : float;
  secondary : Objective.secondary;
  backtrack : backtrack;
  jobs : Workload.Job.t array;
  durations : float array;
  thresholds : float array;
  base : Cluster.Profile.t;
  work : Cluster.Profile.t;  (* Trail: the single mutable profile *)
  marks : Cluster.Profile.mark array;  (* Trail: one mark per depth *)
  profiles : Cluster.Profile.t array;  (* Snapshot: one snapshot per depth *)
  used : bool array;
  (* Circular doubly-linked list of unused job indices in increasing
     order, with sentinel [n]: rank-r lookup is an r-step walk and the
     heuristic child (rank 0) is O(1).  Removal and LIFO re-insertion
     are the dancing-links constant-time splices. *)
  unext : int array;
  uprev : int array;
  chosen : int array;
  starts : float array;
  (* Partial objectives as unboxed parallel arrays: the hot path writes
     two floats per placement instead of allocating an Objective.t. *)
  p_excess : float array;
  p_secondary : float array;
  on_place : (depth:int -> job:int -> start:float -> unit) option;
  mutable visited : int;
}

let reset_links t =
  let n = Array.length t.jobs in
  for i = 0 to n do
    t.unext.(i) <- (i + 1) mod (n + 1);
    t.uprev.(i) <- (i + n) mod (n + 1)
  done

let create ?(secondary = Objective.Bounded_slowdown) ?(backtrack = Trail)
    ?on_place ~now ~profile ~jobs ~durations ~thresholds () =
  let n = Array.length jobs in
  if Array.length durations <> n || Array.length thresholds <> n then
    invalid_arg "Search_state.create: array length mismatch";
  let t =
    {
      now;
      secondary;
      backtrack;
      jobs;
      durations;
      thresholds;
      base = profile;
      work =
        (match backtrack with
        | Trail -> Cluster.Profile.copy profile
        | Snapshot -> profile);
      marks = Array.make n 0;
      profiles =
        (match backtrack with
        | Trail -> [||]
        | Snapshot -> Array.init n (fun _ -> Cluster.Profile.copy profile));
      used = Array.make n false;
      unext = Array.make (n + 1) 0;
      uprev = Array.make (n + 1) 0;
      chosen = Array.make n (-1);
      starts = Array.make n 0.0;
      p_excess = Array.make n 0.0;
      p_secondary = Array.make n 0.0;
      on_place;
      visited = 0;
    }
  in
  reset_links t;
  t

let replicable t = t.backtrack = Trail && Option.is_none t.on_place

let replica ?into t =
  if not (replicable t) then
    invalid_arg "Search_state.replica: needs Trail backtracking and no hook";
  let n = Array.length t.jobs in
  let work =
    Cluster.Profile.copy ?reuse:(Option.map (fun r -> r.work) into) t.base
  in
  Cluster.Profile.make_room work n;
  let r =
    {
      t with
      work;
      marks = Array.make n 0;
      used = Array.make n false;
      unext = Array.make (n + 1) 0;
      uprev = Array.make (n + 1) 0;
      chosen = Array.make n (-1);
      starts = Array.make n 0.0;
      p_excess = Array.make n 0.0;
      p_secondary = Array.make n 0.0;
      visited = 0;
    }
  in
  reset_links r;
  r

let secondary t = t.secondary
let backtrack t = t.backtrack
let job_count t = Array.length t.jobs
let now t = t.now
let nodes_visited t = t.visited
let set_nodes_visited t n = t.visited <- n

let place t ~depth ~job =
  assert (not t.used.(job));
  let j = t.jobs.(job) in
  (* local compares instead of [Float.max]: its out-of-line calls box
     both float arguments and the result, three times per node *)
  let d = t.durations.(job) in
  let duration = if d > 1.0 then d else 1.0 in
  let s =
    match t.backtrack with
    | Trail ->
        t.marks.(depth) <- Cluster.Profile.mark t.work;
        Cluster.Profile.stage_duration t.work duration;
        Cluster.Profile.place_earliest_staged t.work
          ~nodes:j.Workload.Job.nodes;
        Cluster.Profile.staged_start t.work
    | Snapshot ->
        let parent = if depth = 0 then t.base else t.profiles.(depth - 1) in
        let profile = t.profiles.(depth) in
        Cluster.Profile.copy_into ~src:parent ~dst:profile;
        let s =
          Cluster.Profile.earliest_start profile ~nodes:j.Workload.Job.nodes
            ~duration
        in
        Cluster.Profile.reserve profile ~at:s ~nodes:j.Workload.Job.nodes
          ~duration;
        s
  in
  let wait = s -. j.Workload.Job.submit in
  let excess, secondary_sum =
    if depth = 0 then (0.0, 0.0)
    else (t.p_excess.(depth - 1), t.p_secondary.(depth - 1))
  in
  let over = wait -. t.thresholds.(job) in
  t.p_excess.(depth) <- (if over > 0.0 then excess +. over else excess);
  t.p_secondary.(depth) <-
    secondary_sum
    +.
    (match t.secondary with
    | Objective.Bounded_slowdown ->
        let denom = if d > Simcore.Units.minute then d else Simcore.Units.minute in
        1.0 +. (wait /. denom)
    | Objective.Avg_wait -> wait);
  t.used.(job) <- true;
  t.unext.(t.uprev.(job)) <- t.unext.(job);
  t.uprev.(t.unext.(job)) <- t.uprev.(job);
  t.chosen.(depth) <- job;
  t.starts.(depth) <- s;
  t.visited <- t.visited + 1;
  match t.on_place with
  | None -> ()
  | Some f -> f ~depth ~job ~start:s

let unplace t ~depth =
  let job = t.chosen.(depth) in
  assert (job >= 0 && t.used.(job));
  (match t.backtrack with
  | Trail -> Cluster.Profile.undo_to t.work t.marks.(depth)
  | Snapshot -> ());
  t.used.(job) <- false;
  (* dancing-links re-insertion: valid because unplacements mirror
     placements in LIFO order *)
  t.unext.(t.uprev.(job)) <- job;
  t.uprev.(t.unext.(job)) <- job;
  t.chosen.(depth) <- -1

let reset t =
  let n = Array.length t.jobs in
  Array.fill t.used 0 n false;
  Array.fill t.chosen 0 n (-1);
  Array.fill t.starts 0 n 0.0;
  Array.fill t.p_excess 0 n 0.0;
  Array.fill t.p_secondary 0 n 0.0;
  reset_links t;
  match t.backtrack with
  | Trail -> Cluster.Profile.undo_to t.work 0
  | Snapshot -> ()

let used t i = t.used.(i)
let chosen t ~depth = t.chosen.(depth)
let start_at t ~depth = t.starts.(depth)

let partial t ~depth =
  {
    Objective.excess = t.p_excess.(depth);
    secondary_sum = t.p_secondary.(depth);
    jobs = depth + 1;
  }

let leaf_objective t = partial t ~depth:(Array.length t.jobs - 1)
let leaf_excess t = t.p_excess.(Array.length t.jobs - 1)
let leaf_secondary t = t.p_secondary.(Array.length t.jobs - 1)

let nth_unused t r =
  let sentinel = Array.length t.jobs in
  let rec walk node remaining =
    if node = sentinel then None
    else if remaining = 0 then Some node
    else walk t.unext.(node) (remaining - 1)
  in
  walk t.unext.(sentinel) r

let first_unused t = t.unext.(Array.length t.jobs)
let next_unused t job = t.unext.(job)

let start_now_set t ~order ~starts =
  let eps = 1e-6 in
  let picked = ref [] in
  Array.iteri
    (fun d job ->
      if starts.(d) <= t.now +. eps then picked := t.jobs.(job) :: !picked)
    order;
  List.rev !picked
