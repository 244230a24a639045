(* Unit tests for the zero-dependency telemetry library: counter
   semantics, nearest-rank percentiles, span nesting over a virtual
   clock, and the JSON emitter/parser the bench baselines rely on. *)

let fl = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let m = Obs.Metrics.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.Metrics.get ~m "x");
  Obs.Metrics.incr ~m "x";
  Obs.Metrics.incr ~m "x" ~by:4;
  Obs.Metrics.incr ~m "y" ~by:0;
  Alcotest.(check int) "accumulates" 5 (Obs.Metrics.get ~m "x");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("x", 5); ("y", 0) ]
    (Obs.Metrics.counters ~m ());
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic") (fun () ->
      Obs.Metrics.incr ~m "x" ~by:(-1));
  Obs.Metrics.reset ~m ();
  Alcotest.(check int) "reset drops counters" 0 (Obs.Metrics.get ~m "x")

(* ------------------------------------------------------------------ *)
(* Percentiles (nearest rank: index round(p * (n-1)))                  *)
(* ------------------------------------------------------------------ *)

let test_summarize () =
  Alcotest.(check bool) "empty is None" true (Obs.Metrics.summarize [] = None);
  (* 1..100 shuffled order must not matter. *)
  let samples = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  match Obs.Metrics.summarize samples with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
    Alcotest.check fl "min" 1.0 s.Obs.Metrics.min;
    Alcotest.check fl "max" 100.0 s.Obs.Metrics.max;
    Alcotest.check fl "mean" 50.5 s.Obs.Metrics.mean;
    Alcotest.check fl "p50" 51.0 s.Obs.Metrics.p50;
    Alcotest.check fl "p95" 95.0 s.Obs.Metrics.p95;
    Alcotest.check fl "p99" 99.0 s.Obs.Metrics.p99

let test_single_sample_percentiles () =
  match Obs.Metrics.summarize [ 42.0 ] with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    Alcotest.check fl "p50" 42.0 s.Obs.Metrics.p50;
    Alcotest.check fl "p99" 42.0 s.Obs.Metrics.p99

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let m = Obs.Metrics.create () in
  let t = Obs.Trace.create ~metrics:m () in
  let now = ref 0.0 in
  let clock () = !now in
  Obs.Trace.with_span ~t ~clock "outer" (fun () ->
      now := 1.0;
      Obs.Trace.with_span ~t ~clock "inner" (fun () -> now := 3.0);
      now := 10.0);
  match Obs.Trace.spans ~t () with
  | [ inner; outer ] ->
    (* Completion order: children close first. *)
    Alcotest.(check string) "inner first" "inner" inner.Obs.Trace.name;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
    Alcotest.check fl "inner start" 1.0 inner.Obs.Trace.start_ms;
    Alcotest.check fl "inner duration" 2.0 inner.Obs.Trace.duration_ms;
    Alcotest.(check string) "outer second" "outer" outer.Obs.Trace.name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
    Alcotest.check fl "outer duration" 10.0 outer.Obs.Trace.duration_ms;
    (* Each completed span feeds the span.<name> duration histogram. *)
    let names = List.map fst (Obs.Metrics.summaries ~m ()) in
    Alcotest.(check (list string))
      "duration histograms" [ "span.inner"; "span.outer" ] names
  | spans ->
    Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_closes_on_raise () =
  let t = Obs.Trace.create () in
  (try
     Obs.Trace.with_span ~t ~clock:(fun () -> 0.0) "fails" (fun () ->
         failwith "boom")
   with Failure _ -> ());
  match Obs.Trace.spans ~t () with
  | [ s ] -> Alcotest.(check string) "span closed" "fails" s.Obs.Trace.name
  | _ -> Alcotest.fail "span must complete even when the thunk raises"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let doc =
  Obs.Json.Obj
    [ ("experiment", Obs.Json.Str "t");
      ("counters", Obs.Json.Obj [ ("a.b:c", Obs.Json.Num 12.0) ]);
      ( "mixed",
        Obs.Json.List
          [ Obs.Json.Null; Obs.Json.Bool true; Obs.Json.Num (-1.5);
            Obs.Json.Str "esc \"\\\n\t"
          ] )
    ]

let test_json_roundtrip () =
  List.iter
    (fun render ->
      match Obs.Json.parse (render doc) with
      | Ok parsed ->
        Alcotest.(check bool) "round-trips" true (parsed = doc)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ Obs.Json.to_string; Obs.Json.pretty ]

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Obs.Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"open"; "1 2";
      (* well formed, but nested past the parser's 512-level bound *)
      String.make 600 '[' ^ String.make 600 ']' ]

(* The parser reads baselines and hand-edited files, so it must be total
   like the query parser: [Ok] or [Error] on any input, never an
   exception.  Inputs are arbitrary bytes, and documents [Sink.json_of]
   writes, truncated or with bytes overwritten or inserted. *)
let json_of_registry counters samples =
  let m = Obs.Metrics.create () in
  List.iter (fun (name, by) -> Obs.Metrics.incr ~m name ~by) counters;
  List.iter (fun v -> Obs.Metrics.observe ~m "h" v) samples;
  Obs.Sink.json_of ~experiment:"fuzz" ~m ()

let mutated_sink_doc_gen =
  let open QCheck.Gen in
  let* counters =
    small_list (pair (string_size ~gen:printable (int_range 1 8)) small_nat)
  in
  let* samples = small_list (float_range (-1e6) 1e6) in
  let* render = oneofl [ Obs.Json.to_string; Obs.Json.pretty ] in
  let text = render (json_of_registry counters samples) in
  let n = String.length text in
  let* at = int_bound n in
  let* bytes = string_size ~gen:char (int_range 1 4) in
  let from i = String.sub text i (n - i) in
  oneofl
    [ String.sub text 0 at;
      String.sub text 0 at ^ bytes ^ from at;
      String.sub text 0 at ^ bytes ^ from (min n (at + String.length bytes)) ]

let prop_json_parse_total =
  QCheck.Test.make ~name:"Json.parse is total (Result, no exceptions)"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       (QCheck.Gen.oneof
          [ QCheck.Gen.string_size ~gen:QCheck.Gen.char
              (QCheck.Gen.int_range 0 64);
            mutated_sink_doc_gen ]))
    (fun input -> match Obs.Json.parse input with Ok _ | Error _ -> true)

let test_sink_json_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~m "net.msgs" ~by:7;
  Obs.Metrics.observe ~m "net.round_ms" 1.0;
  Obs.Metrics.observe ~m "net.round_ms" 3.0;
  let doc = Obs.Sink.json_of ~experiment:"unit" ~m () in
  (match Obs.Json.member "experiment" doc with
  | Some (Obs.Json.Str "unit") -> ()
  | _ -> Alcotest.fail "experiment field");
  (match Option.bind (Obs.Json.member "counters" doc) (Obs.Json.member "net.msgs") with
  | Some v -> Alcotest.(check (option fl)) "counter" (Some 7.0) (Obs.Json.to_num v)
  | None -> Alcotest.fail "counters.net.msgs");
  match
    Option.bind
      (Option.bind (Obs.Json.member "histograms" doc)
         (Obs.Json.member "net.round_ms"))
      (Obs.Json.member "p50")
  with
  | Some v ->
    Alcotest.(check (option fl)) "p50" (Some 3.0) (Obs.Json.to_num v)
  | None -> Alcotest.fail "histograms.net.round_ms.p50"

let test_sink_read_counters () =
  let dir = Filename.temp_file "obs-sink" "" in
  Sys.remove dir;
  let path = Filename.concat dir "BENCH_unit.json" in
  (* Missing file: a typed error, not a Sys_error — this is what lets
     bench/diff_metrics explain a never-generated baseline. *)
  (match Obs.Sink.read_counters ~path with
  | Error (Obs.Sink.Missing_file p) ->
    Alcotest.(check string) "missing path echoed" path p
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Sink.read_error_to_string e)
  | Ok _ -> Alcotest.fail "read a file that does not exist");
  (* Round-trip: write_file then read_counters recovers the counters. *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~m "net.msgs" ~by:7;
  Obs.Metrics.incr ~m "audit.cross_shard_msgs" ~by:4;
  Obs.Sink.write_file ~path (Obs.Sink.json_of ~experiment:"unit" ~m ());
  (match Obs.Sink.read_counters ~path with
  | Ok counters ->
    Alcotest.(check (list (pair string int)))
      "round-trips sorted"
      [ ("audit.cross_shard_msgs", 4); ("net.msgs", 7) ]
      counters
  | Error e -> Alcotest.failf "read: %s" (Obs.Sink.read_error_to_string e));
  (* Corrupt file: Malformed, with the parser's detail. *)
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  (match Obs.Sink.read_counters ~path with
  | Error (Obs.Sink.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Sink.read_error_to_string e)
  | Ok _ -> Alcotest.fail "parsed garbage");
  (* Valid JSON without a counters object: also Malformed. *)
  let oc = open_out path in
  output_string oc {|{ "experiment": "unit" }|};
  close_out oc;
  (match Obs.Sink.read_counters ~path with
  | Error (Obs.Sink.Malformed { detail; _ }) ->
    Alcotest.(check string) "detail" "no counters object" detail
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Sink.read_error_to_string e)
  | Ok _ -> Alcotest.fail "accepted counter-less document");
  (* A counter that is not an int is rejected, neither rounded nor
     wrapped, so a corrupt baseline cannot diff clean. *)
  List.iter
    (fun value ->
      let oc = open_out path in
      output_string oc
        (Printf.sprintf {|{ "counters": { "net.msgs": 7, "x": %s } }|} value);
      close_out oc;
      match Obs.Sink.read_counters ~path with
      | Error (Obs.Sink.Malformed _) -> ()
      | Error e ->
        Alcotest.failf "%s: wrong error: %s" value
          (Obs.Sink.read_error_to_string e)
      | Ok _ -> Alcotest.failf "accepted counter %s" value)
    [ "3.7"; "1e300"; "-1e400"; {|"7"|} ];
  Sys.remove path;
  (* A directory where the file should be: Malformed, not Sys_error. *)
  (match Obs.Sink.read_counters ~path:dir with
  | Error (Obs.Sink.Malformed { path = p; _ }) ->
    Alcotest.(check string) "directory path echoed" dir p
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Sink.read_error_to_string e)
  | Ok _ -> Alcotest.fail "read a directory as a counters file"
  | exception Sys_error e -> Alcotest.failf "raised Sys_error %s" e);
  Sys.rmdir dir

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "percentiles" `Quick test_summarize;
          Alcotest.test_case "single sample" `Quick
            test_single_sample_percentiles
        ] );
      ( "trace",
        [ Alcotest.test_case "nesting + clock" `Quick test_span_nesting;
          Alcotest.test_case "closes on raise" `Quick test_span_closes_on_raise
        ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
          Alcotest.test_case "sink shape" `Quick test_sink_json_shape;
          Alcotest.test_case "sink read-back + typed errors" `Quick
            test_sink_read_counters
        ] )
    ]
