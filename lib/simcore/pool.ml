module Span = struct
  type t = {
    domain : int;
    batch : int;
    task : int;
    posted_s : float;
    start_s : float;
    stop_s : float;
  }

  let wait_s s = s.start_s -. s.posted_s
  let busy_s s = s.stop_s -. s.start_s
end

(* One batch of work: task [i] is [run who i], [who] being the runner.  Tasks are claimed by a
   fetch-and-add on [next]; [completed] and [failure] are guarded by
   the pool mutex so the submitter can wait for the last task under the
   same lock the workers signal on. *)
type batch = {
  seq : int;
  posted_s : float;  (* 0.0 when tracing is off *)
  run : int -> int -> unit;  (* runner, task *)
  size : int;
  next : int Atomic.t;
  mutable completed : int;
  (* the lowest-indexed task that raised, with its exception *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  width : int;
  m : Mutex.t;
  work_available : Condition.t; (* new batch posted, or shutdown *)
  batch_done : Condition.t; (* the current batch completed *)
  mutable current : batch option;
  mutable stop : bool;
  mutable joined : bool;
  mutable workers : unit Domain.t array;
  mutable batch_seq : int;
  mutable trace : bool;
  mutable spans : Span.t list; (* newest first; guarded by [m] *)
}

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Keep the lowest-indexed failure; called with [t.m] held, or in the
   caller for an inline batch. *)
let note_failure b i e bt =
  match b.failure with
  | Some (j, _, _) when j < i -> ()
  | _ -> b.failure <- Some (i, e, bt)

(* Run every still-unclaimed task of [b] as runner [who] (0 = the
   submitting domain), which each task is told and spans record.
   Top-level functions over plain arguments, like the worker loop
   below: a local closure would be allocated per batch, and a worker
   domain allocates nothing per batch with tracing off. *)
let rec drain t ~who b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.size then begin
    let traced = t.trace in
    let t0 = if traced then Clock.monotonic_s () else 0.0 in
    let failed =
      match b.run who i with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let t1 = if traced then Clock.monotonic_s () else 0.0 in
    Mutex.lock t.m;
    if traced then
      t.spans <-
        {
          Span.domain = who;
          batch = b.seq;
          task = i;
          posted_s = b.posted_s;
          start_s = t0;
          stop_s = t1;
        }
        :: t.spans;
    (match failed with
    | None -> ()
    | Some (e, bt) -> note_failure b i e bt);
    b.completed <- b.completed + 1;
    if b.completed = b.size then Condition.broadcast t.batch_done;
    Mutex.unlock t.m;
    drain t ~who b
  end

let has_work t =
  match t.current with
  | Some b -> Atomic.get b.next < b.size
  | None -> false

(* Before blocking, a worker waiting for work and a submitter waiting
   for its last task spin for about 0.3 ms (8192 rounds of
   [Domain.cpu_relax], about 35 ns each on a 2-vCPU Xeon): a search
   policy posts one small batch per decision, a few tens of
   microseconds apart, and a condition-variable wake-up costs about
   0.1 ms there, on every decision.  The unlocked reads in the spins
   are hints; the locked waits below stay the source of truth. *)
let spin_rounds = 8192

let rec spin_for_work t k =
  if k > 0 && not (t.stop || has_work t) then begin
    Domain.cpu_relax ();
    spin_for_work t (k - 1)
  end

let rec spin_for_completion b k =
  if k > 0 && b.completed < b.size then begin
    Domain.cpu_relax ();
    spin_for_completion b (k - 1)
  end

(* Sleep until a batch has unclaimed tasks or the pool stops; returns
   with [t.m] held. *)
let rec await t =
  if not (t.stop || has_work t) then begin
    Condition.wait t.work_available t.m;
    await t
  end

let rec worker t ~who =
  spin_for_work t spin_rounds;
  Mutex.lock t.m;
  await t;
  match t.current with
  | Some b when not t.stop ->
      Mutex.unlock t.m;
      drain t ~who b;
      worker t ~who
  | _ -> Mutex.unlock t.m

let create ~jobs =
  let width = max jobs 1 in
  let t =
    {
      width;
      m = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      stop = false;
      joined = false;
      workers = [||];
      batch_seq = 0;
      trace = false;
      spans = [];
    }
  in
  t.workers <-
    Array.init (width - 1) (fun i ->
        Domain.spawn (fun () -> worker t ~who:(i + 1)));
  t

let jobs t = t.width
let idle t = t.width > 1 && (not t.stop) && Option.is_none t.current

let set_tracing t v =
  Mutex.lock t.m;
  t.trace <- v;
  Mutex.unlock t.m

let spans t =
  Mutex.lock t.m;
  let spans = t.spans in
  Mutex.unlock t.m;
  List.sort
    (fun (a : Span.t) (b : Span.t) ->
      compare (a.batch, a.task) (b.batch, b.task))
    spans

let clear_spans t =
  Mutex.lock t.m;
  t.spans <- [];
  Mutex.unlock t.m

let reraise b =
  match b.failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* A batch that cannot fan out runs in the caller, in index order: on
   a pool of width 1, from inside one of the pool's own tasks (waiting
   for the pool would wait for itself), or while another domain's
   batch holds the pool. *)
let run_inline n f =
  let failure = ref None in
  for i = 0 to n - 1 do
    match f 0 i with
    | () -> ()
    | exception e ->
        if Option.is_none !failure then
          failure := Some (e, Printexc.get_raw_backtrace ())
  done;
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run t n f =
  if n > 0 then begin
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Simcore.Pool: pool is shut down"
    end;
    if t.width = 1 || Option.is_some t.current then begin
      Mutex.unlock t.m;
      run_inline n f
    end
    else begin
      let b =
        {
          seq = t.batch_seq;
          posted_s = (if t.trace then Clock.monotonic_s () else 0.0);
          run = f;
          size = n;
          next = Atomic.make 0;
          completed = 0;
          failure = None;
        }
      in
      t.batch_seq <- t.batch_seq + 1;
      t.current <- Some b;
      Condition.broadcast t.work_available;
      Mutex.unlock t.m;
      drain t ~who:0 b;
      spin_for_completion b spin_rounds;
      Mutex.lock t.m;
      while b.completed < n do
        Condition.wait t.batch_done t.m
      done;
      t.current <- None;
      Mutex.unlock t.m;
      reraise b
    end
  end

let map t ~f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  run t n (fun _ i -> results.(i) <- Some (f items.(i)));
  List.init n (fun i ->
      match results.(i) with
      | Some v -> v
      | None -> assert false (* no exception above => every slot filled *))

let iter t ~f xs = ignore (map t ~f xs : unit list)

let shutdown t =
  Mutex.lock t.m;
  let first = not t.joined in
  t.joined <- true;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  if first then Array.iter Domain.join t.workers

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* The process-wide pool                                               *)

(* The width is resolved once (REPRO_JOBS, else [default_jobs]) and
   may be overridden; the pool is created on first use.  [shared] can
   be called from any domain (a search policy asks for it inside
   simulations that may themselves run on the pool), so creation and
   replacement happen under [shared_m]; the fast path is one atomic
   read. *)
let shared_m = Mutex.create ()
let shared_width = ref None
let shared_pool : t option Atomic.t = Atomic.make None

let width_from_env () =
  match Option.bind (Sys.getenv_opt "REPRO_JOBS") int_of_string_opt with
  | Some v when v >= 1 -> v
  | _ -> default_jobs ()

let shared_jobs () =
  Mutex.lock shared_m;
  let w =
    match !shared_width with
    | Some w -> w
    | None ->
        let w = width_from_env () in
        shared_width := Some w;
        w
  in
  Mutex.unlock shared_m;
  w

let shutdown_shared () =
  Mutex.lock shared_m;
  let old = Atomic.exchange shared_pool None in
  Mutex.unlock shared_m;
  Option.iter shutdown old

let set_shared_jobs j =
  let j = max 1 j in
  if shared_jobs () <> j then begin
    shutdown_shared ();
    Mutex.lock shared_m;
    shared_width := Some j;
    Mutex.unlock shared_m
  end

let shared () =
  match Atomic.get shared_pool with
  | Some p -> p
  | None ->
      let jobs = shared_jobs () in
      Mutex.lock shared_m;
      let p =
        match Atomic.get shared_pool with
        | Some p -> p
        | None ->
            let p = create ~jobs in
            Atomic.set shared_pool (Some p);
            p
      in
      Mutex.unlock shared_m;
      p
