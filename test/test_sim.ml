(* Tests for the asynchronous §4.1 integrity circulation: its timing
   edges, and the agreement property between the synchronous and
   asynchronous implementations. *)

open Dla

let d = Attribute.defined
let u = Attribute.undefined

(* ------------------------------------------------------------------ *)
(* Async integrity                                                     *)
(* ------------------------------------------------------------------ *)

let populated_cluster () =
  let cluster = Cluster.create ~seed:70 Fragmentation.paper_partition in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86400
  in
  let glsns =
    List.map
      (fun time ->
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
               ~attributes:
                 [ (d "time", Value.Time time); (d "id", Value.Str "U1");
                   (u 2, Value.Money (time * 2))
                 ])
        with
        | Ok glsn -> glsn
        | Error e -> Alcotest.failf "submit: %s" e)
      [ 100; 200; 300 ]
  in
  (cluster, glsns)

let test_async_intact () =
  let cluster, glsns = populated_cluster () in
  let verdict, time =
    Async_integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0)
      (List.hd glsns)
  in
  Alcotest.(check string) "intact" "intact"
    (Async_integrity.verdict_to_string verdict);
  (* Ring of 4 at 1ms/hop plus the kick-off delivery: 5 hops = 5ms. *)
  Alcotest.(check (float 1e-9)) "latency" 5.0 time

let test_async_matches_sync () =
  let cluster, glsns = populated_cluster () in
  (* Tamper one record; both implementations must agree on every glsn. *)
  let victim = List.nth glsns 1 in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  ignore (Storage.tamper_set store ~glsn:victim ~attr:(u 2) (Value.Money 1));
  List.iter
    (fun glsn ->
      let sync_ok =
        Integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0) glsn
        = Ok ()
      in
      let async_verdict, _ =
        Async_integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0)
          glsn
      in
      let async_ok = async_verdict = Async_integrity.Intact in
      Alcotest.(check bool) (Glsn.to_string glsn) sync_ok async_ok)
    glsns

let test_async_timeout_on_dead_node () =
  let cluster, glsns = populated_cluster () in
  let verdict, time =
    Async_integrity.check_record cluster ~down:[ Net.Node_id.Dla 2 ]
      ~timeout_ms:50.0 ~initiator:(Net.Node_id.Dla 0) (List.hd glsns)
  in
  (match verdict with
  | Async_integrity.Timed_out (Some last) ->
    (* P1 was the last to forward; the break is at its successor P2. *)
    Alcotest.(check string) "last forwarder" "P1" (Net.Node_id.to_string last)
  | other ->
    Alcotest.failf "expected timeout, got %s"
      (Async_integrity.verdict_to_string other));
  Alcotest.(check (float 1e-9)) "timeout time" 50.0 time

let test_async_missing_fragment_times_out () =
  let cluster, glsns = populated_cluster () in
  let victim = List.hd glsns in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 3) in
  ignore (Storage.tamper_delete store ~glsn:victim);
  let verdict, _ =
    Async_integrity.check_record cluster ~timeout_ms:30.0
      ~initiator:(Net.Node_id.Dla 0) victim
  in
  match verdict with
  | Async_integrity.Timed_out _ -> ()
  | other ->
    Alcotest.failf "expected timeout, got %s"
      (Async_integrity.verdict_to_string other)

(* The circulation's timing edges on a 4-node ring, initiator P0.  The
   token reaches P0 after one latency and each later node one latency
   after the previous one; the timeout is armed right after the
   kick-off, so the kick-off wins a tie with it and every later arrival
   loses one.  [folds] is the [crypto.mont.pow] delta: one accumulator
   fold per node the token reached in time. *)
let test_async_timing_edges () =
  let p i = Net.Node_id.Dla i in
  (* Each case prepares a fresh cluster and names the record to check. *)
  let first _ glsns = List.hd glsns in
  let delete_row node cluster glsns =
    let glsn = List.hd glsns in
    ignore (Storage.tamper_delete (Cluster.store_of cluster node) ~glsn);
    glsn
  in
  let tamper_c2 node cluster glsns =
    let glsn = List.nth glsns 1 in
    ignore
      (Storage.tamper_set (Cluster.store_of cluster node) ~glsn ~attr:(u 2)
         (Value.Money 1));
    glsn
  in
  let cases =
    [ ("defaults", None, None, [], first, "intact", 5.0, 4);
      ( "kick-off ties the timeout", Some 2.0, Some 2.0, [], first,
        "timed out (last forwarder P0)", 2.0, 1 );
      ( "a later hop ties the timeout", Some 1.0, Some 3.0, [], first,
        "timed out (last forwarder P1)", 3.0, 2 );
      ( "timeout between hops", Some 1.0, Some 4.5, [], first,
        "timed out (last forwarder P3)", 4.5, 4 );
      ( "the return ties the timeout", Some 1.0, Some 5.0, [], first,
        "timed out (last forwarder P3)", 5.0, 4 );
      ("initiator down", None, None, [ p 0 ], first, "timed out", 100.0, 0);
      ( "zero latency ties zero timeout", Some 0.0, Some 0.0, [], first,
        "timed out (last forwarder P0)", 0.0, 1 );
      ("zero latency", Some 0.0, None, [], first, "intact", 0.0, 4);
      ("non-member down", None, None, [ p 9 ], first, "intact", 5.0, 4);
      ( "row deleted at P0", None, None, [], delete_row (p 0), "timed out",
        100.0, 0 );
      ( "row deleted at P3", None, Some 30.0, [], delete_row (p 3),
        "timed out (last forwarder P2)", 30.0, 3 );
      ("C2 tampered at P1", None, None, [], tamper_c2 (p 1), "mismatch", 5.0, 4);
      ( "P2 down", None, Some 50.0, [ p 2 ], first,
        "timed out (last forwarder P1)", 50.0, 2 )
    ]
  in
  List.iter
    (fun (name, latency_ms, timeout_ms, down, prepare, verdict, time, folds) ->
      let cluster, glsns = populated_cluster () in
      let glsn = prepare cluster glsns in
      let before = Obs.Metrics.get "crypto.mont.pow" in
      let got, got_time =
        Async_integrity.check_record cluster ?latency_ms ?timeout_ms ~down
          ~initiator:(p 0) glsn
      in
      Alcotest.(check string)
        (name ^ ": verdict") verdict
        (Async_integrity.verdict_to_string got);
      Alcotest.(check (float 0.0)) (name ^ ": time") time got_time;
      Alcotest.(check int) (name ^ ": folds") folds
        (Obs.Metrics.get "crypto.mont.pow" - before))
    cases

(* A negative or non-finite latency or timeout is rejected, except that
   a down initiator sends nothing, so its latency is never used. *)
let test_async_rejects_bad_timing () =
  let cluster, glsns = populated_cluster () in
  let check name ?(down = []) ~latency_ms ~timeout_ms rejected =
    let got =
      match
        Async_integrity.check_record cluster ~latency_ms ~timeout_ms ~down
          ~initiator:(Net.Node_id.Dla 0) (List.hd glsns)
      with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    Alcotest.(check bool) name rejected got
  in
  List.iter
    (fun (name, latency_ms, timeout_ms) ->
      check name ~latency_ms ~timeout_ms true)
    [ ("negative latency", -1.0, 100.0); ("nan latency", Float.nan, 100.0);
      ("infinite latency", Float.infinity, 100.0);
      ("negative timeout", 1.0, -1.0); ("nan timeout", 1.0, Float.nan);
      ("infinite timeout", 1.0, Float.infinity)
    ];
  check "down initiator ignores its latency" ~down:[ Net.Node_id.Dla 0 ]
    ~latency_ms:(-1.0) ~timeout_ms:100.0 false

let () =
  Alcotest.run "sim"
    [ ( "async-integrity",
        [ Alcotest.test_case "intact" `Quick test_async_intact;
          Alcotest.test_case "matches sync" `Quick test_async_matches_sync;
          Alcotest.test_case "timeout on dead node" `Quick
            test_async_timeout_on_dead_node;
          Alcotest.test_case "missing fragment" `Quick
            test_async_missing_fragment_times_out;
          Alcotest.test_case "timing edges" `Quick test_async_timing_edges;
          Alcotest.test_case "bad timing rejected" `Quick
            test_async_rejects_bad_timing
        ] )
    ]
