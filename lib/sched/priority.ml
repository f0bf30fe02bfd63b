type t = {
  name : string;
  key : now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float;
}

let fcfs = { name = "fcfs"; key = (fun ~now:_ ~r_star:_ _ -> 0.0) }
let sjf = { name = "sjf"; key = (fun ~now:_ ~r_star j -> -.r_star j) }

let expansion_factor ~now ~r_star (j : Workload.Job.t) =
  let wait = Float.max 0.0 (now -. j.submit) in
  let runtime = Float.max (r_star j) Simcore.Units.minute in
  1.0 +. (wait /. runtime)

let lxf = { name = "lxf"; key = expansion_factor }

let lxf_w ~weight_per_hour =
  {
    name = Printf.sprintf "lxf&w(%.3g)" weight_per_hour;
    key =
      (fun ~now ~r_star j ->
        let wait_hours =
          Simcore.Units.to_hours (Float.max 0.0 (now -. j.Workload.Job.submit))
        in
        expansion_factor ~now ~r_star j +. (weight_per_hour *. wait_hours));
  }

(* Positions [i] and [k] of the scored queue: larger key first, then
   submission. *)
let compare_at keys jobs i k =
  let c = Float.compare keys.(k) keys.(i) in
  if c <> 0 then c else Workload.Job.compare_submit jobs.(i) jobs.(k)

let rec ordered_from keys jobs i =
  i + 1 >= Array.length jobs
  || (compare_at keys jobs i (i + 1) <= 0 && ordered_from keys jobs (i + 1))

let order p ~now ~r_star = function
  | [] -> [||]
  | [ j ] -> [| j |]
  | waiting ->
      let jobs = Array.of_list waiting in
      let n = Array.length jobs in
      let keys = Array.create_float n in
      for i = 0 to n - 1 do
        keys.(i) <- p.key ~now ~r_star jobs.(i)
      done;
      if ordered_from keys jobs 0 then jobs
      else begin
        let idx = Array.init n Fun.id in
        Array.stable_sort (fun i k -> compare_at keys jobs i k) idx;
        Array.map (fun i -> jobs.(i)) idx
      end
