(* ISSUE satellite: rendering an experiment with REPRO_JOBS=1 and
   REPRO_JOBS=4 must produce byte-identical formatted output.  The
   pool only warms the compute-once caches; formatting always reads
   the warm cache sequentially, so parallelism must be invisible. *)

let with_env bindings f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) bindings in
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect f ~finally:(fun () ->
      (* putenv "" behaves as unset for every REPRO_* parser *)
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)

let render experiments =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun run -> run fmt) experiments;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_fig3_fig6_jobs_invariant () =
  (* REPRO_MAXL=1000 keeps fig6 to a single L point; fig3 renders both
     months, fig6 only 1/04. *)
  with_env
    [
      ("REPRO_SCALE", "0.1");
      ("REPRO_MONTHS", "7/03,1/04");
      ("REPRO_MAXL", "1000");
    ]
    (fun () ->
      let experiments = [ Experiments.Fig3.run; Experiments.Fig6.run ] in
      let saved_jobs = Experiments.Common.jobs () in
      Fun.protect
        ~finally:(fun () ->
          Experiments.Common.set_jobs saved_jobs;
          Experiments.Common.reset_caches ();
          Experiments.Common.shutdown_pool ())
        (fun () ->
          Experiments.Common.set_jobs 1;
          Experiments.Common.reset_caches ();
          let seq = render experiments in
          Experiments.Common.set_jobs 4;
          Experiments.Common.reset_caches ();
          let par = render experiments in
          Alcotest.(check bool) "sequential render non-empty" true
            (String.length seq > 0);
          Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" seq par))

let suite =
  [
    Alcotest.test_case "fig3+fig6 output independent of REPRO_JOBS" `Quick
      test_fig3_fig6_jobs_invariant;
  ]
