type r_star = Actual | Requested | Predicted

let r_star_name = function
  | Actual -> "R*=T"
  | Requested -> "R*=R"
  | Predicted -> "R*=pred"

type result = { outcomes : Metrics.Outcome.t list; decisions : int }

type event = Arrival of Workload.Job.t | Finish of int

let rec mem_id id = function
  | [] -> false
  | (j : Workload.Job.t) :: rest -> j.id = id || mem_id id rest

(* [jobs] minus the [k] jobs of [gone], then [tail].  The unchanged
   suffix is shared once all of [gone] is found and [tail] is empty. *)
let[@tail_mod_cons] rec without gone k tail jobs =
  match (jobs, tail) with
  | [], _ -> tail
  | _, [] when k = 0 -> jobs
  | (j : Workload.Job.t) :: rest, _ ->
      if mem_id j.id gone then without gone (k - 1) tail rest
      else j :: without gone k tail rest

let run ?(machine = Cluster.Machine.titan) ?(observers = []) ~r_star ~policy
    trace =
  (* On-line predictor state (Predicted mode): running mean of the
     actual/requested ratio of completed jobs, seeded at 1.0 (trust the
     user until evidence accumulates). *)
  let ratio_sum = ref 1.0 in
  let ratio_count = ref 1 in
  let estimator (j : Workload.Job.t) =
    match r_star with
    | Actual -> Float.min j.runtime j.requested
    | Requested -> j.requested
    | Predicted ->
        let ratio = !ratio_sum /. float_of_int !ratio_count in
        Float.max Simcore.Units.minute (Float.min j.requested (j.requested *. ratio))
  in
  let learn (j : Workload.Job.t) =
    if r_star = Predicted then begin
      ratio_sum := !ratio_sum +. (Float.min j.runtime j.requested /. j.requested);
      incr ratio_count
    end
  in
  Array.iter
    (fun j ->
      if not (Cluster.Machine.fits machine j) then
        invalid_arg
          (Printf.sprintf "Engine.run: job %d wider than machine"
             j.Workload.Job.id))
    (Workload.Trace.jobs trace);
  let events = Simcore.Event_queue.create () in
  Array.iter
    (fun (j : Workload.Job.t) ->
      Simcore.Event_queue.schedule events ~time:j.submit (Arrival j))
    (Workload.Trace.jobs trace);
  let running = Cluster.Running_set.create ~machine in
  (* Waiting queue, O(1) per event: [waiting_ids] is the set of
     waiting jobs, so its length is the queue length.  [waiting] is in
     submit order but may still hold the jobs in [started] (started
     since it was last rebuilt), and [arrived] holds the newer
     arrivals, newest first; [current] rebuilds the list in one pass
     when either is non-empty. *)
  let waiting_ids = Hashtbl.create 256 in
  let waiting : Workload.Job.t list ref = ref [] in
  let started : Workload.Job.t list ref = ref [] in
  let arrived : Workload.Job.t list ref = ref [] in
  let current () =
    (match (!started, !arrived) with
    | [], [] -> ()
    | s, a ->
        waiting := without s (List.length s) (List.rev a) !waiting;
        started := [];
        arrived := []);
    !waiting
  in
  let outcomes = ref [] in
  let decisions = ref 0 in
  let start_job now (j : Workload.Job.t) =
    if not (Hashtbl.mem waiting_ids j.id) then
      invalid_arg
        (Printf.sprintf "Engine.run: policy started non-waiting job %d" j.id);
    Hashtbl.remove waiting_ids j.id;
    started := j :: !started;
    let duration = Float.min j.runtime j.requested in
    let finish = now +. duration in
    Cluster.Running_set.add running
      { job = j; start = now; finish; est_finish = now +. estimator j };
    Simcore.Event_queue.schedule events ~time:finish (Finish j.id);
    Observer.start observers ~now j;
    outcomes := Metrics.Outcome.v ~job:j ~start:now ~finish :: !outcomes
  in
  let apply now = function
    | Arrival j ->
        Hashtbl.replace waiting_ids j.id ();
        arrived := j :: !arrived
    | Finish id ->
        let entry = Cluster.Running_set.remove running ~id in
        learn entry.Cluster.Running_set.job;
        Observer.finish observers ~now entry.Cluster.Running_set.job
  in
  let rec drain_instant now =
    match Simcore.Event_queue.next_time events with
    | Some t when t <= now +. 1e-9 ->
        let _, e = Option.get (Simcore.Event_queue.pop events) in
        apply now e;
        drain_instant now
    | _ -> ()
  in
  let rec loop () =
    match Simcore.Event_queue.pop events with
    | None -> ()
    | Some (now, e) ->
        apply now e;
        drain_instant now;
        let ctx =
          {
            Sched.Policy.now;
            waiting = current ();
            running;
            r_star = estimator;
          }
        in
        let to_start = policy.Sched.Policy.decide ctx in
        incr decisions;
        List.iter (start_job now) to_start;
        (match observers with
        | [] -> ()
        | _ ->
            Observer.decision observers ~now
              ~queue:(Hashtbl.length waiting_ids)
              ~started:(List.length to_start) ~waiting:(current ()) ~running);
        loop ()
  in
  loop ();
  { outcomes = List.rev !outcomes; decisions = !decisions }
