let load = Common.Rho 0.9
let month_label = "1/04"

let run fmt =
  Common.section fmt ~id:"backlog"
    (Printf.sprintf
       "Backlog dynamics: daily average queue length, %s at rho=0.9"
       month_label);
  match
    List.find_opt
      (fun m -> String.equal m.Workload.Month_profile.label month_label)
      (Common.months ())
  with
  | None ->
      Format.fprintf fmt "%s not in REPRO_MONTHS selection; skipped.@."
        month_label
  | Some month ->
      let policies =
        Fig3.policies ~load ~r_star:Sim.Engine.Actual ~budget:Fig4.budget_for
      in
      Common.prefetch_runs ~months:[ month ] policies;
      let trace = Common.trace month load in
      let start = Workload.Trace.measure_start trace in
      let stop = Workload.Trace.measure_end trace in
      let n_days =
        int_of_float (Float.ceil ((stop -. start) /. Simcore.Units.day))
      in
      Format.fprintf fmt "%-16s" "policy";
      for d = 1 to n_days do
        Format.fprintf fmt " %5s" (Printf.sprintf "d%d" d)
      done;
      Format.pp_print_newline fmt ();
      List.iter
        (fun (name, runner) ->
          let run = runner month in
          Format.fprintf fmt "%-16s" name;
          for d = 0 to n_days - 1 do
            let from_ = start +. (float_of_int d *. Simcore.Units.day) in
            let upto = Float.min stop (from_ +. Simcore.Units.day) in
            Format.fprintf fmt " %5.0f" (Sim.Run.queue_average run ~from_ ~upto)
          done;
          Format.pp_print_newline fmt ())
        policies
