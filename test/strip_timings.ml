(* Filter for the @check-smoke golden:

     main.exe ... | strip_timings.exe OUT

   copies the quick-loop stdout of bench/main.exe from stdin to the
   file OUT minus the rows that carry host timings, so what is left is
   deterministic.  Dropped: the "[<id> done in <t>s]" lines, the
   "total bench time" line and the numeric rows of the overhead table
   (its header stays). *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let () =
  let oc = open_out Sys.argv.(1) in
  let in_overhead = ref false in
  try
    while true do
      let line = input_line stdin in
      let timing =
        (starts_with ~prefix:"[" line && contains line " done in ")
        || starts_with ~prefix:"total bench time:" line
        || (!in_overhead && line <> "" && line.[0] >= '0' && line.[0] <= '9')
      in
      if starts_with ~prefix:"== overhead:" line then in_overhead := true
      else if starts_with ~prefix:"[overhead done in" line then
        in_overhead := false;
      if not timing then begin
        output_string oc line;
        output_char oc '\n'
      end
    done
  with End_of_file -> close_out oc
