(* Compare two metrics JSON files produced by `main.exe --metrics-out`.

   Usage: diff_metrics BASELINE CURRENT [--threshold PCT]

   Prints one line per counter whose value drifted, and exits 1 when
   any counter moved by more than the threshold (default 10%).  CI and
   `dune runtest` run it at --threshold 0, so any drift fails them.
   Usage errors and unreadable files exit 2. *)

let threshold = ref 10.0

let usage () =
  prerr_endline "usage: diff_metrics BASELINE CURRENT [--threshold PCT]";
  exit 2

let read_counters ~role path =
  match Obs.Sink.read_counters ~path with
  | Ok counters -> counters
  | Error (Obs.Sink.Missing_file _) ->
    Printf.eprintf "diff_metrics: missing %s file %s\n" role path;
    if role = "baseline" then
      prerr_endline
        "  regenerate with: dune exec bench/main.exe -- --only <experiment> \
         --metrics-out <dir>";
    exit 2
  | Error e ->
    Printf.eprintf "diff_metrics: malformed %s: %s\n" role
      (Obs.Sink.read_error_to_string e);
    exit 2

let () =
  let positional = ref [] in
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--threshold" when !i + 1 < Array.length argv ->
      incr i;
      (match float_of_string_opt argv.(!i) with
      | Some pct -> threshold := pct
      | None -> usage ())
    | arg -> positional := arg :: !positional);
    incr i
  done;
  match List.rev !positional with
  | [ baseline_path; current_path ] ->
    let baseline = read_counters ~role:"baseline" baseline_path in
    let current = read_counters ~role:"current" current_path in
    let names =
      List.sort_uniq compare (List.map fst baseline @ List.map fst current)
    in
    let worst = ref 0.0 in
    let drifted = ref 0 in
    List.iter
      (fun name ->
        let b = Option.value ~default:0 (List.assoc_opt name baseline) in
        let c = Option.value ~default:0 (List.assoc_opt name current) in
        if b <> c then begin
          let pct =
            if b = 0 then infinity
            else 100.0 *. Float.abs (float_of_int (c - b)) /. float_of_int b
          in
          incr drifted;
          if pct > !worst then worst := pct;
          Printf.printf "%-40s %10d -> %10d  (%+d, %s)\n" name b c (c - b)
            (if pct = infinity then "new/removed"
             else Printf.sprintf "%.1f%%" pct)
        end)
      names;
    if !drifted = 0 then begin
      Printf.printf "no counter drift (%d counters compared)\n"
        (List.length names);
      exit 0
    end
    else if !worst > !threshold then begin
      Printf.printf "DRIFT: %d counter(s) changed, worst %.1f%% > %.1f%%\n"
        !drifted !worst !threshold;
      exit 1
    end
    else begin
      Printf.printf "%d counter(s) changed, all within %.1f%% threshold\n"
        !drifted !threshold;
      exit 0
    end
  | _ -> usage ()
