type sample = {
  t : float;
  span : int;
  busy : int;
  busy_min : int;
  busy_max : int;
  queue : int;
  queue_min : int;
  queue_max : int;
  demand : int;
  demand_min : int;
  demand_max : int;
  running : int;
  running_min : int;
  running_max : int;
  max_wait : float;
  max_wait_min : float;
  max_wait_max : float;
  excess : float;
}

(* Exact whole-run accumulators: one Timeline per signal, created at
   the first observation (the series does not know the trace start at
   [create] time). *)
type timelines = {
  tl_busy : Simcore.Stats.Timeline.t;
  tl_queue : Simcore.Stats.Timeline.t;
  tl_demand : Simcore.Stats.Timeline.t;
  tl_running : Simcore.Stats.Timeline.t;
  tl_max_wait : Simcore.Stats.Timeline.t;
  tl_excess : Simcore.Stats.Timeline.t;
}

type t = {
  policy : string;
  threshold : float;
  points : sample array;  (* slots [0, n) committed *)
  mutable n : int;
  mutable stride : int;  (* raw observations per sample *)
  mutable observed : int;
  mutable excess : float;  (* cumulative excessive wait, seconds *)
  mutable pending : sample option;  (* accumulating toward next commit *)
  mutable last : sample option;  (* newest raw observation *)
  mutable last_now : float;
  mutable tls : timelines option;
}

let dummy =
  {
    t = 0.0; span = 0;
    busy = 0; busy_min = 0; busy_max = 0;
    queue = 0; queue_min = 0; queue_max = 0;
    demand = 0; demand_min = 0; demand_max = 0;
    running = 0; running_min = 0; running_max = 0;
    max_wait = 0.0; max_wait_min = 0.0; max_wait_max = 0.0;
    excess = 0.0;
  }

let create ?(capacity = 4096) ?(threshold = 0.0) ~policy () =
  let capacity = max 2 (capacity land lnot 1) in
  {
    policy;
    threshold;
    points = Array.make capacity dummy;
    n = 0;
    stride = 1;
    observed = 0;
    excess = 0.0;
    pending = None;
    last = None;
    last_now = neg_infinity;
    tls = None;
  }

let policy t = t.policy
let capacity t = Array.length t.points
let threshold t = t.threshold
let observed t = t.observed
let stride t = t.stride
let length t = t.n
let samples t = Array.to_list (Array.sub t.points 0 t.n)
let cumulative_excess t = t.excess

let note_start t ~wait = t.excess <- t.excess +. Float.max 0.0 (wait -. t.threshold)

(* [b] is the later sample: instantaneous values come from it, the
   min/max envelope covers both, spans add. *)
let merge a b =
  {
    t = b.t;
    span = a.span + b.span;
    busy = b.busy;
    busy_min = min a.busy_min b.busy_min;
    busy_max = max a.busy_max b.busy_max;
    queue = b.queue;
    queue_min = min a.queue_min b.queue_min;
    queue_max = max a.queue_max b.queue_max;
    demand = b.demand;
    demand_min = min a.demand_min b.demand_min;
    demand_max = max a.demand_max b.demand_max;
    running = b.running;
    running_min = min a.running_min b.running_min;
    running_max = max a.running_max b.running_max;
    max_wait = b.max_wait;
    max_wait_min = Float.min a.max_wait_min b.max_wait_min;
    max_wait_max = Float.max a.max_wait_max b.max_wait_max;
    excess = b.excess;
  }

(* Pairwise in-place halving: sample i absorbs samples 2i and 2i+1.
   [n] is even here because commits only happen at full strides and
   the capacity is even. *)
let halve t =
  let half = t.n / 2 in
  for i = 0 to half - 1 do
    t.points.(i) <- merge t.points.(2 * i) t.points.((2 * i) + 1)
  done;
  t.n <- half;
  t.stride <- t.stride * 2

let observe t ~now ~busy ~queue ~demand ~running ~max_wait =
  if now < t.last_now then
    invalid_arg "Series.observe: time went backwards";
  let tls =
    match t.tls with
    | Some tls -> tls
    | None ->
        let tls =
          {
            tl_busy = Simcore.Stats.Timeline.create ~start:now;
            tl_queue = Simcore.Stats.Timeline.create ~start:now;
            tl_demand = Simcore.Stats.Timeline.create ~start:now;
            tl_running = Simcore.Stats.Timeline.create ~start:now;
            tl_max_wait = Simcore.Stats.Timeline.create ~start:now;
            tl_excess = Simcore.Stats.Timeline.create ~start:now;
          }
        in
        t.tls <- Some tls;
        tls
  in
  Simcore.Stats.Timeline.record tls.tl_busy ~now ~value:(float_of_int busy);
  Simcore.Stats.Timeline.record tls.tl_queue ~now ~value:(float_of_int queue);
  Simcore.Stats.Timeline.record tls.tl_demand ~now
    ~value:(float_of_int demand);
  Simcore.Stats.Timeline.record tls.tl_running ~now
    ~value:(float_of_int running);
  Simcore.Stats.Timeline.record tls.tl_max_wait ~now ~value:max_wait;
  Simcore.Stats.Timeline.record tls.tl_excess ~now ~value:t.excess;
  t.last_now <- now;
  t.observed <- t.observed + 1;
  let s =
    {
      t = now;
      span = 1;
      busy; busy_min = busy; busy_max = busy;
      queue; queue_min = queue; queue_max = queue;
      demand; demand_min = demand; demand_max = demand;
      running; running_min = running; running_max = running;
      max_wait; max_wait_min = max_wait; max_wait_max = max_wait;
      excess = t.excess;
    }
  in
  t.last <- Some s;
  let p = match t.pending with None -> s | Some p -> merge p s in
  if p.span >= t.stride then begin
    t.pending <- None;
    t.points.(t.n) <- p;
    t.n <- t.n + 1;
    if t.n = Array.length t.points then halve t
  end
  else t.pending <- Some p

let observer t =
  {
    Observer.none with
    on_start =
      (fun ~now (j : Workload.Job.t) -> note_start t ~wait:(now -. j.submit));
    on_decision =
      (fun ~now ~queue ~started:_ ~waiting ~running ->
        (* one pass over the queue: core demand (backlog) and the
           longest current wait *)
        let demand = ref 0 and max_wait = ref 0.0 in
        List.iter
          (fun (j : Workload.Job.t) ->
            demand := !demand + j.nodes;
            let w = now -. j.submit in
            if w > !max_wait then max_wait := w)
          waiting;
        observe t ~now
          ~busy:(Cluster.Running_set.busy_nodes running)
          ~queue ~demand:!demand
          ~running:(Cluster.Running_set.count running)
          ~max_wait:!max_wait);
  }

(* --- summaries --- *)

type summary = {
  label : string;
  last : float;
  avg : float;
  lo : float;
  hi : float;
}

let summary t =
  match (t.tls, t.last) with
  | None, _ | _, None -> []
  | Some tls, Some last ->
      let upto = t.last_now in
      let row label tl last =
        {
          label;
          last;
          avg = Simcore.Stats.Timeline.average tl ~upto;
          lo = Simcore.Stats.Timeline.min_value tl ~upto;
          hi = Simcore.Stats.Timeline.max_value tl ~upto;
        }
      in
      [
        row "busy_nodes" tls.tl_busy (float_of_int last.busy);
        row "queue_jobs" tls.tl_queue (float_of_int last.queue);
        row "backlog_nodes" tls.tl_demand (float_of_int last.demand);
        row "running_jobs" tls.tl_running (float_of_int last.running);
        row "max_wait_s" tls.tl_max_wait last.max_wait;
        row "excess_s" tls.tl_excess last.excess;
      ]

(* --- JSONL export --- *)

let schema = "run_series/1"

(* Minimal JSON string escaping, as in Decision_log: labels are ASCII
   but quotes/backslashes must not break the line format. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_jsonl ?(run = "") fmt t =
  Format.fprintf fmt
    "{\"type\":\"run\",\"schema\":\"%s\",\"run\":\"%s\",\"policy\":\"%s\",\"observed\":%d,\"samples\":%d,\"stride\":%d,\"capacity\":%d,\"threshold\":%.3f,\"excess_total\":%.3f}@."
    schema (escape run) (escape t.policy) t.observed t.n t.stride
    (capacity t) t.threshold t.excess;
  Array.iteri
    (fun i s ->
      if i < t.n then
        Format.fprintf fmt
          "{\"type\":\"sample\",\"run\":\"%s\",\"i\":%d,\"t\":%.3f,\"span\":%d,\"busy\":%d,\"busy_min\":%d,\"busy_max\":%d,\"queue\":%d,\"queue_min\":%d,\"queue_max\":%d,\"demand\":%d,\"demand_min\":%d,\"demand_max\":%d,\"running\":%d,\"running_min\":%d,\"running_max\":%d,\"max_wait\":%.3f,\"max_wait_min\":%.3f,\"max_wait_max\":%.3f,\"excess\":%.3f}@."
          (escape run) i s.t s.span s.busy s.busy_min s.busy_max s.queue
          s.queue_min s.queue_max s.demand s.demand_min s.demand_max
          s.running s.running_min s.running_max s.max_wait s.max_wait_min
          s.max_wait_max s.excess)
    t.points
