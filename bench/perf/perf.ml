(* Wall-clock benchmark of the DLA: four seeded workloads driven through
   the library's public API under library defaults (Net.Config.default,
   no ambient domain pool, default Montgomery LRU size).

     perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--out DIR] [--smoke]
     perf.exe compare A_DIR B_DIR [--bench BENCHMARK.json]
     perf.exe pairs A_EXE B_EXE --out DIR [--runs N] [--seed N]
              [--seconds S] [--workload W]... [--bench BENCHMARK.json]

   With --workload, one workload runs in this process and the last line
   of standard output is its JSON summary.  Without it, every workload
   runs in its own child process, one at a time, so heap peaks, the
   global metrics registry and the Montgomery LRUs never leak between
   workloads.  See README.md for the metrics and how to read them. *)

let workloads =
  [ (Wl_ingest.name, Wl_ingest.run); (Wl_audit_mix.name, Wl_audit_mix.run);
    (Wl_session_ph.name, Wl_session_ph.run); (Wl_stream.name, Wl_stream.run)
  ]

let default_seconds = 15.0
let smoke_seconds = 0.2

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  out : string option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n\
    \       perf.exe compare A_DIR B_DIR [--bench BENCHMARK.json]\n\
    \       perf.exe pairs A_EXE B_EXE --out DIR [--runs N] [--seed N] [--seconds S] [--workload W]...";
  exit 2

let bad fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let int_arg name v = match int_of_string_opt v with Some n -> n | None -> bad "%s: not an integer: %s" name v

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest ->
    if not (List.mem_assoc w workloads) then
      bad "unknown workload %s (known: %s)" w (String.concat ", " (List.map fst workloads));
    parse { o with workload = Some w } rest
  | "--seed" :: n :: rest -> parse { o with seed = int_arg "--seed" n } rest
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some x when x > 0.0 -> parse { o with seconds = Some x } rest
    | _ -> bad "--seconds: not a positive number: %s" s)
  | "--trace" :: ("0" | "1" as t) :: rest -> parse { o with trace = t = "1" } rest
  | "--trace" :: rest -> parse { o with trace = true } rest
  | "--out" :: d :: rest -> parse { o with out = Some d } rest
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | arg :: _ -> bad "unknown argument %s" arg

let seconds o = Option.value o.seconds ~default:(if o.smoke then smoke_seconds else default_seconds)

(* One workload, in this process. *)
let run_one o name =
  let cfg = { Run.seed = o.seed; seconds = seconds o; trace = o.trace; smoke = o.smoke } in
  Printf.printf "[%s] seed %d, %.1f s measured%s%s\n%!" name o.seed cfg.Run.seconds
    (if o.trace then ", traced" else "") (if o.smoke then ", smoke sizes" else "");
  Span.epoch := Util.now ();
  let r = (List.assoc name workloads) cfg in
  Results.print r;
  if o.trace then Span.print_table ~workload:name;
  Option.iter (fun out -> Results.write ~out ~seed:o.seed r) o.out;
  print_endline (Obs.Json.to_string (Results.summary_json r));
  exit (if Results.passed r then 0 else 1)

(* Every workload, each in a child process started one at a time; the
   children's output passes through and their summaries are combined. *)
let run_all o =
  let child name =
    let args =
      [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%g" (seconds o); "--trace"; (if o.trace then "1" else "0") ]
      @ (match o.out with Some d -> [ "--out"; d ] | None -> [])
      @ if o.smoke then [ "--smoke" ] else []
    in
    let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
    let last = ref "" in
    (try
       while true do
         let line = input_line ic in
         print_endline line;
         last := line
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    match (status, Obs.Json.parse !last) with
    | Unix.WEXITED 0, Ok summary -> Some summary
    | _ ->
      Printf.printf "[%s] child process failed\n%!" name;
      None
  in
  let results = List.map (fun (name, _) -> (name, child name)) workloads in
  let num k j = Option.bind (Obs.Json.member k j) Obs.Json.to_num in
  let sum k =
    List.fold_left
      (fun acc (_, r) -> acc + Option.fold ~none:0 ~some:(fun j -> int_of_float (Option.value ~default:0.0 (num k j))) r)
      0 results
  in
  let metrics =
    List.concat_map
      (fun (name, r) ->
        match Option.bind r (Obs.Json.member "metrics") with
        | Some (Obs.Json.Obj ms) -> List.map (fun (k, v) -> (name ^ "." ^ k, v)) ms
        | _ -> [])
      results
  in
  let correct =
    List.for_all
      (fun (_, r) ->
        match Option.bind r (Obs.Json.member "correct") with
        | Some (Obs.Json.Bool b) -> b
        | _ -> false)
      results
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct); ("attempted", Results.int (sum "attempted"));
            ("failed", Results.int (sum "failed")); ("metrics", Obs.Json.Obj metrics)
          ]));
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> Compare.main rest
  | "pairs" :: rest -> Compare.pairs_main ~workloads:(List.map fst workloads) rest
  | ("--help" | "-h") :: _ -> usage ()
  | args -> (
    let o =
      parse { workload = None; seed = 1; seconds = None; trace = false; out = None; smoke = false } args
    in
    try
      match o.workload with
      | Some name -> run_one o name
      | None -> run_all o
    with Failure msg ->
      prerr_endline ("perf: " ^ msg);
      exit 1)
