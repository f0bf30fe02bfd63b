type t = {
  capacity : int;
  mutable times : float array;
  mutable free : int array;
  mutable len : int;
  (* Reverse-delta trail: every structural mutation performed while
     [trailing] is on appends one inverse record, so [undo_to] can roll
     the profile back in O(mutations) instead of restoring an
     O(segments) snapshot.  Parallel arrays keep the records unboxed;
     [t_op] packs [(index lsl 2) lor opcode]. *)
  mutable trailing : bool;
  mutable t_op : int array;
  mutable t_time : float array;
  mutable t_free : int array;
  mutable t_len : int;
  (* Scratch cells for the placement scan ([scratch.(0)] = staged
     duration, [scratch.(1)] = window finish, [scratch.(2)] = resulting
     start) plus the stop segment of the last successful scan.  They
     let the scan run as top-level recursive functions over int
     arguments only and let callers pass the duration / read the start
     through tiny always-inlined accessors — a local [let rec]
     capturing floats costs a closure allocation per call in
     non-flambda builds, and float arguments and results of
     out-of-line calls are boxed. *)
  scratch : float array;
  mutable scan_stop : int;
}

type mark = int

let capacity t = t.capacity
let segment_count t = t.len
let start_time t = t.times.(0)

let create ~now ~capacity =
  if capacity < 1 then invalid_arg "Profile.create: capacity < 1";
  {
    capacity;
    times = Array.make 16 now;
    free = Array.make 16 capacity;
    len = 1;
    trailing = false;
    t_op = [||];
    t_time = [||];
    t_free = [||];
    t_len = 0;
    scratch = Array.make 3 0.0;
    scan_stop = 0;
  }

let ensure_capacity t needed =
  let cap = Array.length t.times in
  if needed > cap then begin
    let cap' = max needed (cap * 2) in
    let times' = Array.make cap' 0.0 in
    let free' = Array.make cap' 0 in
    Array.blit t.times 0 times' 0 t.len;
    Array.blit t.free 0 free' 0 t.len;
    t.times <- times';
    t.free <- free'
  end

(* --- trail ----------------------------------------------------------- *)

let op_insert = 0
let op_delete = 1
let op_range_sub = 2

(* Claim the next trail slot and return its index; the caller fills the
   parallel arrays directly (array-to-array stores keep floats
   unboxed).  Growth is off the hot path: once sized for the deepest
   search seen, claims never allocate again. *)
let trail_slot t =
  let cap = Array.length t.t_op in
  if t.t_len >= cap then begin
    let cap' = max 64 (cap * 2) in
    let op' = Array.make cap' 0 in
    let time' = Array.make cap' 0.0 in
    let free' = Array.make cap' 0 in
    Array.blit t.t_op 0 op' 0 t.t_len;
    Array.blit t.t_time 0 time' 0 t.t_len;
    Array.blit t.t_free 0 free' 0 t.t_len;
    t.t_op <- op';
    t.t_time <- time';
    t.t_free <- free'
  end;
  let pos = t.t_len in
  t.t_len <- pos + 1;
  pos

let mark t =
  t.trailing <- true;
  t.t_len

let trail_length t = t.t_len

(* --- primitive mutations (trail-recorded) ---------------------------- *)

(* Insert a segment boundary at position [idx]. *)
let insert_raw t idx time free =
  ensure_capacity t (t.len + 1);
  Array.blit t.times idx t.times (idx + 1) (t.len - idx);
  Array.blit t.free idx t.free (idx + 1) (t.len - idx);
  t.times.(idx) <- time;
  t.free.(idx) <- free;
  t.len <- t.len + 1

let insert t idx time free =
  insert_raw t idx time free;
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (idx lsl 2) lor op_insert
  end

(* Remove the segment boundary at position [idx]. *)
let delete_raw t idx =
  Array.blit t.times (idx + 1) t.times idx (t.len - idx - 1);
  Array.blit t.free (idx + 1) t.free idx (t.len - idx - 1);
  t.len <- t.len - 1

let delete t idx =
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (idx lsl 2) lor op_delete;
    t.t_time.(pos) <- t.times.(idx);
    t.t_free.(pos) <- t.free.(idx)
  end;
  delete_raw t idx

(* Subtract [nodes] from segments [lo, hi); one trail record for the
   whole run.  Bounds are established by the caller, so the loop uses
   unchecked accesses (this is the single hottest loop of the tree
   search). *)
let range_subtract t lo hi nodes =
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (lo lsl 2) lor op_range_sub;
    t.t_time.(pos) <- float_of_int nodes;
    t.t_free.(pos) <- hi
  end;
  for k = lo to hi - 1 do
    Array.unsafe_set t.free k (Array.unsafe_get t.free k - nodes)
  done

let undo_to t m =
  if m < 0 || m > t.t_len then
    invalid_arg "Profile.undo_to: mark not on the current trail";
  for k = t.t_len - 1 downto m do
    let packed = t.t_op.(k) in
    let idx = packed lsr 2 in
    let op = packed land 3 in
    if op = op_range_sub then begin
      let nodes = int_of_float t.t_time.(k) in
      let hi = t.t_free.(k) in
      for j = idx to hi - 1 do
        Array.unsafe_set t.free j (Array.unsafe_get t.free j + nodes)
      done
    end
    else if op = op_insert then delete_raw t idx
    else begin
      (* [insert_raw] inlined so the boundary time moves float-array to
         float-array without crossing a function boundary (which would
         box it — this loop runs once per backtracked node) *)
      ensure_capacity t (t.len + 1);
      Array.blit t.times idx t.times (idx + 1) (t.len - idx);
      Array.blit t.free idx t.free (idx + 1) (t.len - idx);
      t.times.(idx) <- t.t_time.(k);
      t.free.(idx) <- t.t_free.(k);
      t.len <- t.len + 1
    end
  done;
  t.t_len <- m

(* Merge adjacent segments with equal free counts (in place, O(n)).
   Only used off the hot path ([of_running]); [reserve] merges locally
   and records its merges on the trail. *)
let normalize t =
  let w = ref 0 in
  for r = 1 to t.len - 1 do
    if t.free.(r) <> t.free.(!w) then begin
      incr w;
      t.times.(!w) <- t.times.(r);
      t.free.(!w) <- t.free.(r)
    end
  done;
  t.len <- !w + 1

let of_running ~now ~capacity releases =
  let t = create ~now ~capacity in
  let live =
    List.filter (fun (end_time, _) -> end_time > now) releases
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let busy = List.fold_left (fun acc (_, n) -> acc + n) 0 live in
  if busy > capacity then
    invalid_arg "Profile.of_running: running jobs exceed capacity";
  (* Build segments left to right: free grows at each release. *)
  let current = ref (capacity - busy) in
  t.free.(0) <- !current;
  List.iter
    (fun (end_time, nodes) ->
      current := !current + nodes;
      if t.times.(t.len - 1) = end_time then t.free.(t.len - 1) <- !current
      else begin
        ensure_capacity t (t.len + 1);
        t.times.(t.len) <- end_time;
        t.free.(t.len) <- !current;
        t.len <- t.len + 1
      end)
    live;
  normalize t;
  t

let segments t =
  List.init t.len (fun i -> (t.times.(i), t.free.(i)))

(* Index of the segment containing [time]. *)
let locate t time =
  if time < t.times.(0) then
    invalid_arg "Profile.locate: time before profile start";
  let rec search lo hi =
    (* invariant: times.(lo) <= time and (hi = len or times.(hi) > time) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.times.(mid) <= time then search mid hi else search lo mid
  in
  search 0 t.len

let free_at t time = t.free.(locate t time)

let fits_at t ~at ~nodes ~duration =
  let finish = at +. duration in
  let rec check k =
    if k >= t.len || t.times.(k) >= finish then true
    else t.free.(k) >= nodes && check (k + 1)
  in
  let i = locate t at in
  t.free.(i) >= nodes && check (i + 1)

let earliest_start t ~nodes ~duration =
  if nodes > t.capacity then
    invalid_arg "Profile.earliest_start: job wider than machine";
  if duration <= 0.0 then
    invalid_arg "Profile.earliest_start: duration must be positive";
  (* Candidate starts are segment boundaries where enough nodes are
     free; on failure inside the window, resume from the segment that
     failed. *)
  (* [check] returns the window's end segment (>= 0) on success or
     [-k - 1] when segment [k] blocks — an int either way, so the scan
     allocates nothing. *)
  let rec from i =
    if i >= t.len then t.times.(t.len - 1)
    else if Array.unsafe_get t.free i < nodes then from (i + 1)
    else begin
      let finish = Array.unsafe_get t.times i +. duration in
      let rec check k =
        if k >= t.len || Array.unsafe_get t.times k >= finish then k
        else if Array.unsafe_get t.free k >= nodes then check (k + 1)
        else -k - 1
      in
      let r = check (i + 1) in
      if r >= 0 then t.times.(i) else from (-r)
    end
  in
  from 0

(* Carve [nodes] out of segments [i, stop) whose run has already been
   validated (every free count >= nodes), ensuring a boundary at the
   window finish first.  The finish time is read from [scratch.(1)]
   rather than passed as an argument (a float argument would be boxed
   on every call).  [stop] is the first segment index with
   [times.(stop) >= finish] (or [len]).  Returns nothing; merges the
   run's two borders locally — subtracting a constant from a
   contiguous run preserves inequality inside the run and outside it,
   so no other adjacent pair can newly share a free count. *)
let carve t ~i ~stop ~nodes =
  let finish = Array.unsafe_get t.scratch 1 in
  let stop =
    if stop >= t.len then begin
      (* reservation extends past the last boundary: split the final
         infinite segment at [finish] *)
      insert t t.len finish t.free.(t.len - 1);
      t.len - 1
    end
    else if t.times.(stop) > finish then begin
      insert t stop finish t.free.(stop - 1);
      stop
    end
    else stop
  in
  range_subtract t i stop nodes;
  (* merge the right border first so index [i] stays valid *)
  if stop < t.len && t.free.(stop) = t.free.(stop - 1) then delete t stop;
  if i > 0 && t.free.(i) = t.free.(i - 1) then delete t i

let reserve t ~at ~nodes ~duration =
  if duration <= 0.0 then invalid_arg "Profile.reserve: duration <= 0";
  let finish = at +. duration in
  let i = locate t at in
  let i =
    if t.times.(i) < at then begin
      insert t (i + 1) at t.free.(i);
      i + 1
    end
    else i
  in
  (* Validate the whole window before mutating the free counts, so an
     oversubscription attempt raises without corrupting the profile. *)
  let rec validate k =
    if k < t.len && t.times.(k) < finish then begin
      if t.free.(k) < nodes then
        invalid_arg "Profile.reserve: insufficient free nodes";
      validate (k + 1)
    end
    else k
  in
  if t.free.(i) < nodes then
    invalid_arg "Profile.reserve: insufficient free nodes";
  let stop = validate (i + 1) in
  Array.unsafe_set t.scratch 1 finish;
  carve t ~i ~stop ~nodes

(* Window scan for [place_earliest], lifted to top level so each call
   passes only ints and [t] (no closures, no boxed floats).  The
   window end lives in [t.scratch.(1)]; [scan_check] yields the stop
   segment (>= 0) or [-k - 1] for a block at [k]; [scan_from] returns
   the start segment and leaves its stop in [t.scan_stop].  The
   unchecked reads are safe because the final segment always has
   [capacity] free nodes, so a scan with [nodes <= capacity]
   terminates at or before it. *)
let rec scan_check t nodes k =
  if
    k >= t.len
    || Array.unsafe_get t.times k >= Array.unsafe_get t.scratch 1
  then k
  else if Array.unsafe_get t.free k >= nodes then scan_check t nodes (k + 1)
  else -k - 1

let rec scan_from t nodes i =
  if Array.unsafe_get t.free i < nodes then scan_from t nodes (i + 1)
  else begin
    Array.unsafe_set t.scratch 1
      (Array.unsafe_get t.times i +. Array.unsafe_get t.scratch 0);
    let r = scan_check t nodes (i + 1) in
    if r >= 0 then begin
      t.scan_stop <- r;
      i
    end
    else scan_from t nodes (-r)
  end

(* The staged accessors are one expression each so the compiler
   inlines them at cross-module call sites, letting the duration in
   and the start out without boxing. *)
let stage_duration t duration = Array.unsafe_set t.scratch 0 duration
let staged_start t = Array.unsafe_get t.scratch 2

let place_earliest_staged t ~nodes =
  if nodes > t.capacity then
    invalid_arg "Profile.place_earliest: job wider than machine";
  if Array.unsafe_get t.scratch 0 <= 0.0 then
    invalid_arg "Profile.place_earliest: duration must be positive";
  (* Fused [earliest_start] + [reserve]: the feasibility scan already
     knows the start segment [i] and the extent [stop] of the window,
     so the reservation skips the binary search and — because every
     candidate start is a segment boundary — never splits at the start
     time.  One pass over the profile per job placement. *)
  let i = scan_from t nodes 0 in
  let s = t.times.(i) in
  (* [scan_from] left [scratch.(1)] holding the successful window's
     finish time, exactly what [carve] reads *)
  carve t ~i ~stop:t.scan_stop ~nodes;
  Array.unsafe_set t.scratch 2 s

let place_earliest t ~nodes ~duration =
  stage_duration t duration;
  place_earliest_staged t ~nodes;
  staged_start t

let copy ?reuse t =
  let t_op, t_time, t_free =
    match reuse with
    | Some old -> (old.t_op, old.t_time, old.t_free)
    | None -> ([||], [||], [||])
  in
  {
    capacity = t.capacity;
    times = Array.sub t.times 0 t.len;
    free = Array.sub t.free 0 t.len;
    len = t.len;
    trailing = false;
    t_op;
    t_time;
    t_free;
    t_len = 0;
    scratch = Array.make 3 0.0;
    scan_stop = 0;
  }

let copy_into ~src ~dst =
  if src.capacity <> dst.capacity then
    invalid_arg "Profile.copy_into: capacity mismatch";
  ensure_capacity dst src.len;
  Array.blit src.times 0 dst.times 0 src.len;
  Array.blit src.free 0 dst.free 0 src.len;
  dst.len <- src.len;
  (* A wholesale overwrite cannot be undone segment-wise: invalidate
     any trail the destination carried. *)
  dst.trailing <- false;
  dst.t_len <- 0

(* A placement adds at most one segment boundary ([carve]'s split at
   the window finish) and four trail records (that insert, the range
   subtraction and two merges). *)
let make_room t room =
  ensure_capacity t (t.len + room);
  let records = t.t_len + (4 * room) in
  if Array.length t.t_op < records then begin
    let records = max records (2 * Array.length t.t_op) in
    let op' = Array.make records 0 in
    let time' = Array.make records 0.0 in
    let free' = Array.make records 0 in
    Array.blit t.t_op 0 op' 0 t.t_len;
    Array.blit t.t_time 0 time' 0 t.t_len;
    Array.blit t.t_free 0 free' 0 t.t_len;
    t.t_op <- op';
    t.t_time <- time';
    t.t_free <- free'
  end

let pp fmt t =
  Format.fprintf fmt "[";
  for i = 0 to t.len - 1 do
    if i > 0 then Format.fprintf fmt " ";
    Format.fprintf fmt "%a:%d" Simcore.Units.pp_duration t.times.(i)
      t.free.(i)
  done;
  Format.fprintf fmt "]"

let invariant t =
  let ok = ref (t.len >= 1) in
  for i = 0 to t.len - 1 do
    if t.free.(i) < 0 || t.free.(i) > t.capacity then ok := false;
    if i > 0 && t.times.(i) <= t.times.(i - 1) then ok := false;
    if i > 0 && t.free.(i) = t.free.(i - 1) then ok := false
  done;
  !ok
