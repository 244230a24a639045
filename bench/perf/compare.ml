(* perf.exe compare A/ B/: apply BENCHMARK.json's bounds to two sets of
   untraced result files ([<dir>/<workload>/seed<N>.json]).

   perf.exe pairs A_EXE B_EXE --out DIR: make such sets by running two
   builds of perf.exe in interleaved pairs — pair k runs both on seed
   N + k, A first when k is even and B first when it is odd — so that a
   drift of the host's speed falls on both sides alike; then compare
   DIR/a with DIR/b.

   For every (end-to-end metric, workload) compare prints both medians
   with their quartiles and one verdict.  Runs are paired by seed when
   both sets hold the same seeds, otherwise every A run is paired with
   every B run.
   - improved: B wins at least 9 of 10 pairs (ties count for neither)
     and the medians differ by more than A's own spread between
     quartiles;
   - unresolved: a spread (quartile distance over median) is wider than
     the bound, unless every B run beats every A run;
   - regressed: B's median is worse than A's by more than the bound;
   - unchanged: otherwise.
   A run that failed an op or disagreed with the oracle is reported as
   failed.  The exit code is 1 if any verdict is regressed or failed. *)

open Util

type metric = { name : string; lower_is_better : bool; bound : float }
type run = { seed : int; passed : bool; values : (string * float) list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith ("missing field " ^ name)

let num_field name j =
  match Obs.Json.to_num (field name j) with
  | Some x -> x
  | None -> failwith ("not a number: " ^ name)

let metrics_of_bench path =
  match field "end_to_end" (parse_file path) with
  | Obs.Json.List items ->
    List.map
      (fun m ->
        let s k = Option.get (Obs.Json.to_str (field k m)) in
        { name = s "name"; lower_is_better = s "better" = "lower"; bound = num_field "bound" m })
      items
  | _ -> failwith (path ^ ": end_to_end is not a list")

let run_of_file path =
  let doc = parse_file path in
  let values =
    match field "metrics" doc with
    | Obs.Json.Obj metrics -> List.map (fun (name, m) -> (name, num_field "value" m)) metrics
    | _ -> []
  in
  let passed =
    field "correct" doc = Obs.Json.Bool true && num_field "failed" doc = 0.0
  in
  { seed = int_of_float (num_field "seed" doc); passed; values }

(* workload -> its untraced runs. *)
let load dir =
  let table = Hashtbl.create 8 in
  Array.iter
    (fun workload ->
      let wdir = Filename.concat dir workload in
      if Sys.is_directory wdir then
        Array.iter
          (fun file ->
            if Filename.check_suffix file ".json"
               && String.length file > 4 && String.sub file 0 4 = "seed"
               && not (Filename.check_suffix file ".trace.json")
            then
              Hashtbl.replace table workload
                (run_of_file (Filename.concat wdir file)
                :: Option.value ~default:[] (Hashtbl.find_opt table workload)))
          (Sys.readdir wdir))
    (Sys.readdir dir);
  table

(* Value pairs (a, b) to count wins over: matched by seed when both
   sides ran the same seeds, otherwise all cross pairs.  Every run holds
   the metric ([report] checks). *)
let pairs m a b =
  let value r = List.assoc m.name r.values in
  let seeds rs = List.sort compare (List.map (fun r -> r.seed) rs) in
  let matched = seeds a = seeds b && List.length (List.sort_uniq compare (seeds a)) = List.length a in
  List.concat_map
    (fun ra ->
      List.filter_map
        (fun rb -> if matched && rb.seed <> ra.seed then None else Some (value ra, value rb))
        b)
    a

let verdict m a b =
  let values rs = Array.of_list (List.map (fun r -> List.assoc m.name r.values) rs) in
  let va = values a and vb = values b in
  let a1, ma, a3 = quartiles va and b1, mb, b3 = quartiles vb in
  let rel_spread q1 q3 med = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
  let spread = Float.max (rel_spread a1 a3 ma) (rel_spread b1 b3 mb) in
  let beats y x = if m.lower_is_better then y < x else y > x in
  let ps = pairs m a b in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) ps)
  and losses = List.length (List.filter (fun (x, y) -> beats x y) ps) in
  let win_rate = ratio (float_of_int wins) (float_of_int (wins + losses)) in
  let gain = win_rate >= 0.9 && Float.abs (mb -. ma) > a3 -. a1 in
  let all_better = Array.for_all (fun x -> Array.for_all (fun y -> beats y x) vb) va in
  let worse_by =
    let rel = if ma = 0.0 then mb -. ma else (mb -. ma) /. Float.abs ma in
    if m.lower_is_better then rel else -.rel
  in
  let v =
    if all_better && gain then "improved"
    else if spread > m.bound then "unresolved"
    else if worse_by > m.bound then "regressed"
    else if gain then "improved"
    else "unchanged"
  in
  ((a1, ma, a3, Array.length va), (b1, mb, b3, Array.length vb), worse_by, spread, v)

(* Print the table; returns how many verdicts are regressed or failed. *)
let report ~bench dir_a dir_b =
  let metrics = metrics_of_bench bench in
  let a = load dir_a and b = load dir_b in
  let workloads = List.sort_uniq compare (Hashtbl.fold (fun w _ acc -> w :: acc) a []) in
  Printf.printf "%-11s %-18s %-34s %-34s %8s %7s %6s  %s\n" "workload" "metric"
    ("A median [q1, q3] " ^ dir_a) ("B median [q1, q3] " ^ dir_b) "worse%" "spread%" "bound%" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      let ra = Hashtbl.find a w and rb = Option.value ~default:[] (Hashtbl.find_opt b w) in
      let failed rs = List.length (List.filter (fun r -> not r.passed) rs) in
      if failed ra + failed rb > 0 then begin
        incr bad;
        Printf.printf "%-11s %-18s A: %d of %d runs failed, B: %d of %d runs failed  failed\n" w "runs"
          (failed ra) (List.length ra) (failed rb) (List.length rb)
      end;
      List.iter
        (fun m ->
          if rb = [] || not (List.for_all (fun r -> List.mem_assoc m.name r.values) (ra @ rb)) then
            Printf.printf "%-11s %-18s missing in one of the sets\n" w m.name
          else begin
            let (a1, ma, a3, na), (b1, mb, b3, nb), worse, spread, v = verdict m ra rb in
            if v = "regressed" then incr bad;
            let q x1 x x3 n = Printf.sprintf "%.4g [%.4g, %.4g] n=%d" x x1 x3 n in
            Printf.printf "%-11s %-18s %-34s %-34s %8.2f %7.2f %6.1f  %s\n" w m.name (q a1 ma a3 na)
              (q b1 mb b3 nb) (100.0 *. worse) (100.0 *. spread) (100.0 *. m.bound) v
          end)
        metrics)
    workloads;
  !bad

let usage () =
  prerr_endline
    "usage: perf.exe compare A_DIR B_DIR [--bench BENCHMARK.json]\n\
    \       perf.exe pairs A_EXE B_EXE --out DIR [--runs N] [--seed N] [--seconds S]\n\
    \                      [--workload W]... [--bench BENCHMARK.json]";
  exit 2

let main args =
  let rec parse bench dirs = function
    | "--bench" :: f :: rest -> parse f dirs rest
    | d :: rest -> parse bench (dirs @ [ d ]) rest
    | [] -> (bench, dirs)
  in
  match parse "BENCHMARK.json" [] args with
  | bench, [ dir_a; dir_b ] -> if report ~bench dir_a dir_b > 0 then exit 1
  | _ -> usage ()

(* One run of [exe] into [out], its output discarded; whether it exited 0. *)
let run_child exe ~workload ~seed ~seconds ~out =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds;
       "--trace"; "0"; "--out"; out |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process exe args Unix.stdin null Unix.stderr)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

type pairs_opts = {
  exes : string list;
  out : string option;
  runs : int;
  seed : int;
  seconds : string;
  only : string list;
  bench : string;
}

let pairs_main ~workloads args =
  let rec parse o = function
    | [] -> o
    | "--out" :: d :: rest -> parse { o with out = Some d } rest
    | "--runs" :: n :: rest -> parse { o with runs = int_of_string n } rest
    | "--seed" :: n :: rest -> parse { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> parse { o with seconds = s } rest
    | "--workload" :: w :: rest when List.mem w workloads -> parse { o with only = o.only @ [ w ] } rest
    | "--bench" :: f :: rest -> parse { o with bench = f } rest
    | exe :: rest when exe <> "" && exe.[0] <> '-' -> parse { o with exes = o.exes @ [ exe ] } rest
    | _ -> usage ()
  in
  let o =
    try
      parse
        { exes = []; out = None; runs = 10; seed = 1; seconds = "15"; only = [];
          bench = "BENCHMARK.json" }
        args
    with Failure _ -> usage ()
  in
  match (o.exes, o.out) with
  | [ exe_a; exe_b ], Some out ->
    let dir_a = Filename.concat out "a" and dir_b = Filename.concat out "b" in
    let chosen = if o.only = [] then workloads else o.only in
    List.iter
      (fun workload ->
        for k = 0 to o.runs - 1 do
          let seed = o.seed + k in
          let sides = [ ("A", exe_a, dir_a); ("B", exe_b, dir_b) ] in
          List.iter
            (fun (side, exe, dir) ->
              let t0 = now () in
              let ok = run_child exe ~workload ~seed ~seconds:o.seconds ~out:dir in
              Printf.printf "[pairs] %s seed %d %s: %s, %.1f s\n%!" workload seed side
                (if ok then "ok" else "FAILED") (now () -. t0))
            (if k mod 2 = 0 then sides else List.rev sides)
        done)
      chosen;
    if report ~bench:o.bench dir_a dir_b > 0 then exit 1
  | _ -> usage ()
