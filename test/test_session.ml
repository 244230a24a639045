(* Batched audit sessions: equivalence and cost properties.

   The contract under test (ISSUE: batched audit sessions): a session
   over K criteria must return byte-identical matching glsn lists to K
   sequential Auditor_engine.run calls — across all three Spec.Schedule
   network schedules — while paying strictly less SMC traffic whenever
   the batch shares predicates.

   Seeds: QCHECK_SEED drives the generated batches, CHAOS_SEED the
   network schedules (same conventions as the chaos/spec suites). *)

open Dla

let auditor = Net.Node_id.Auditor
let schedules = Spec.Schedule.suite ~seed:(Generators.chaos_seed ()) ()

(* A batch of paper-schema criteria with heavy predicate overlap:
   every atom below appears in at least two queries, so plan_many's
   common-subexpression elimination and the session glsn-set cache both
   have work to do. *)
let overlapping_batch =
  [ {|C1 > 30|};
    {|C1 > 30 && C2 = C3|};
    {|protocl = "UDP"|};
    {|protocl = "UDP" && C1 > 30|};
    {|C2 = C3 && time >= 0|};
    {|time >= 0 && protocl = "UDP"|}
  ]

let parse s =
  match Query.parse s with Ok q -> q | Error e -> Alcotest.fail e

let sequential_matching cluster criteria =
  List.map
    (fun s ->
      match Auditor_engine.run cluster ~auditor (Auditor_engine.Text s) with
      | Ok audit -> List.map Glsn.to_string audit.Auditor_engine.matching
      | Error e -> Alcotest.fail (Audit_error.to_string e))
    criteria

let batched_matching cluster criteria =
  match Audit_session.run_strings cluster ~auditor criteria with
  | Ok summary ->
    List.map
      (fun entry ->
        List.map Glsn.to_string entry.Audit_session.matching)
      summary.Audit_session.entries
  | Error e -> Alcotest.fail (Audit_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Equivalence across network schedules                                *)
(* ------------------------------------------------------------------ *)

let test_batch_equals_sequential_all_schedules () =
  List.iter
    (fun sched ->
      let name = Spec.Schedule.name sched in
      (* Each path gets its own cluster over its own schedule network;
         glsn sets depend only on the stored rows, so the answers must
         agree byte-for-byte regardless of latency or loss pattern. *)
      let sequential =
        Spec.Schedule.run sched (fun net ->
            let cluster, _ = Workload.Paper_example.build ~net () in
            sequential_matching cluster overlapping_batch)
      in
      let batched =
        Spec.Schedule.run sched (fun net ->
            let cluster, _ = Workload.Paper_example.build ~net () in
            batched_matching cluster overlapping_batch)
      in
      List.iteri
        (fun i (seq, bat) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: query %d (%s)" name i
               (List.nth overlapping_batch i))
            seq bat)
        (List.combine sequential batched))
    schedules

(* Random batches: draw K queries from the paper-schema generator and
   duplicate a prefix so overlap is guaranteed, then require entry-wise
   equality with the sequential path (uniform schedule; the generated
   queries may reference unsupported combinations, which both paths
   must reject identically). *)
let batch_gen =
  let open QCheck.Gen in
  list_size (int_range 2 5) Generators.paper_query_gen

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"session = sequential audits (generated batches)"
    ~count:40
    (QCheck.make ~print:(fun qs ->
         String.concat " ; " (List.map Query.to_string qs))
       batch_gen)
    (fun queries ->
      (* Duplicating the batch against itself forces shared clauses. *)
      let queries = queries @ queries in
      let seq_result =
        let cluster, _ = Workload.Paper_example.build () in
        List.map
          (fun q ->
            match
              Auditor_engine.run cluster ~auditor (Auditor_engine.Criteria q)
            with
            | Ok audit ->
              Ok (List.map Glsn.to_string audit.Auditor_engine.matching)
            | Error e -> Error (Audit_error.to_string e))
          queries
      in
      let bat_result =
        let cluster, _ = Workload.Paper_example.build () in
        match Audit_session.run cluster ~auditor queries with
        | Ok summary ->
          List.map
            (fun entry ->
              Ok (List.map Glsn.to_string entry.Audit_session.matching))
            summary.Audit_session.entries
        | Error e -> List.map (fun _ -> Error (Audit_error.to_string e)) queries
      in
      (* A session fails as a unit on the first bad query; sequential
         execution fails only that query.  Equivalence is therefore
         required only when every query individually succeeds. *)
      if List.exists Result.is_error seq_result then QCheck.assume_fail ()
      else seq_result = bat_result)

(* Hostile query text: a string literal may hold any byte, including
   those an unprefixed clause key would use as separators.  The second
   criterion's one atom spells the first criterion's two-atom clause
   key; the session must still answer each criterion as a standalone
   audit does (4 records, then none), not serve one clause's cached set
   for the other. *)
let test_batch_literal_separators () =
  let criteria =
    [ {|id = "U1" || id = "U2"|}; "id = \"U1\001id\000=\000Cs:U2\"" ]
  in
  let cluster, _ = Workload.Paper_example.build () in
  let sequential = sequential_matching cluster criteria in
  Alcotest.(check (list int)) "standalone match counts" [ 4; 0 ]
    (List.map List.length sequential);
  let cluster, _ = Workload.Paper_example.build () in
  Alcotest.(check (list (list string))) "session = standalone audits"
    sequential
    (batched_matching cluster criteria)

(* ------------------------------------------------------------------ *)
(* Cost: sharing must show up as strictly fewer messages and rounds    *)
(* ------------------------------------------------------------------ *)

let test_batch_strictly_cheaper () =
  let sequential_cluster, _ = Workload.Paper_example.build () in
  let seq_cost =
    List.fold_left
      (fun (msgs, rounds) s ->
        match
          Auditor_engine.run sequential_cluster ~auditor
            (Auditor_engine.Text s)
        with
        | Ok audit ->
          ( msgs + audit.Auditor_engine.messages,
            rounds + audit.Auditor_engine.rounds )
        | Error e -> Alcotest.fail (Audit_error.to_string e))
      (0, 0) overlapping_batch
  in
  let batched_cluster, _ = Workload.Paper_example.build () in
  match Audit_session.run_strings batched_cluster ~auditor overlapping_batch with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok summary ->
    let seq_msgs, seq_rounds = seq_cost in
    Alcotest.(check bool)
      (Printf.sprintf "fewer messages (%d < %d)" summary.Audit_session.messages
         seq_msgs)
      true
      (summary.Audit_session.messages < seq_msgs);
    Alcotest.(check bool)
      (Printf.sprintf "fewer rounds (%d < %d)" summary.Audit_session.rounds
         seq_rounds)
      true
      (summary.Audit_session.rounds < seq_rounds);
    Alcotest.(check bool) "cache hits occurred" true
      (summary.Audit_session.cache_hits > 0);
    Alcotest.(check bool) "atoms deduplicated" true
      (summary.Audit_session.dedup_atoms > 0);
    Alcotest.(check bool) "clauses deduplicated" true
      (summary.Audit_session.dedup_clauses > 0)

(* The same claim read off the Obs.Metrics registry: for an overlapping
   batch, the batched session's net.msg.* counters stay strictly below
   the sequential run's, and audit.cache_hit / audit.dedup_atoms record
   the sharing that paid for it. *)
let test_batch_metrics () =
  let net_msgs () = Obs.Metrics.get "net.msgs" in
  Obs.Metrics.reset ();
  let cluster, _ = Workload.Paper_example.build () in
  let before = net_msgs () in
  ignore (sequential_matching cluster overlapping_batch);
  let sequential_msgs = net_msgs () - before in
  Obs.Metrics.reset ();
  let cluster, _ = Workload.Paper_example.build () in
  let before = net_msgs () in
  ignore (batched_matching cluster overlapping_batch);
  let batched_msgs = net_msgs () - before in
  Alcotest.(check bool)
    (Printf.sprintf "net.msgs reduced (%d < %d)" batched_msgs sequential_msgs)
    true
    (batched_msgs < sequential_msgs);
  Alcotest.(check bool) "audit.cache_hit recorded" true
    (Obs.Metrics.get "audit.cache_hit" > 0);
  Alcotest.(check bool) "audit.dedup_atoms recorded" true
    (Obs.Metrics.get "audit.dedup_atoms" > 0)

(* ------------------------------------------------------------------ *)
(* Session semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_empty_batch () =
  let cluster, _ = Workload.Paper_example.build () in
  let stats_before = (Net.Network.stats (Cluster.net cluster)).Net.Network.messages in
  match Audit_session.run cluster ~auditor [] with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok summary ->
    Alcotest.(check int) "no entries" 0
      (List.length summary.Audit_session.entries);
    Alcotest.(check int) "no traffic"
      stats_before
      (Net.Network.stats (Cluster.net cluster)).Net.Network.messages

let test_batch_count_only () =
  let cluster, _ = Workload.Paper_example.build () in
  match
    Audit_session.run_strings cluster ~delivery:Executor.Count_only ~auditor
      [ {|protocl = "UDP"|}; {|protocl = "UDP" && C1 > 30|} ]
  with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok summary ->
    let counts =
      List.map (fun e -> e.Audit_session.count) summary.Audit_session.entries
    in
    Alcotest.(check (list int)) "counts" [ 3; 2 ] counts;
    List.iter
      (fun e ->
        Alcotest.(check int) "glsns withheld" 0
          (List.length e.Audit_session.matching))
      summary.Audit_session.entries

let test_batch_error_propagates () =
  let cluster, _ = Workload.Paper_example.build () in
  (match
     Audit_session.run_strings cluster ~auditor [ {|C1 > 30|}; "&&bad" ]
   with
  | Ok _ -> Alcotest.fail "parse error must propagate"
  | Error (Audit_error.Parse_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Audit_error.to_string e));
  match
    Audit_session.run cluster ~auditor
      [ parse {|C1 > 30|}; parse {|nonexistent = 1|} ]
  with
  | Ok _ -> Alcotest.fail "planner error must propagate"
  | Error (Audit_error.Unknown_attribute { attr }) ->
    Alcotest.(check string) "attribute named" "nonexistent" attr
  | Error e -> Alcotest.failf "wrong error: %s" (Audit_error.to_string e)

(* Degrade mode: a cached clause evaluated while a node was down must
   not silently launder incomplete coverage into later queries. *)
let test_batch_degrade_coverage () =
  let cluster, _ = Workload.Paper_example.build () in
  let frag = Cluster.fragmentation cluster in
  let home =
    match Fragmentation.home_of frag (Attribute.defined "protocl") with
    | Some node -> node
    | None -> Alcotest.fail "protocl has a home in the paper layout"
  in
  Net.Network.take_down (Cluster.net cluster) home;
  match
    Audit_session.run_strings cluster ~failure_mode:Executor.Degrade ~auditor
      [ {|protocl = "UDP"|}; {|protocl = "UDP"|} ]
  with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok summary ->
    List.iter
      (fun entry ->
        Alcotest.(check bool) "coverage incomplete" false
          entry.Audit_session.coverage.Executor.complete)
      summary.Audit_session.entries

(* ------------------------------------------------------------------ *)
(* Phase-1 order                                                       *)
(* ------------------------------------------------------------------ *)

(* Phase 1 warms every distinct clause once, cheapest first: local
   clauses before cross ones, first seen first among equal costs.  This
   batch ties at both cost levels, so the session must observe exactly
   what warming its clauses by hand in that written-out order does. *)
let phase1_batch =
  [ {|C2 = C3 && C1 > 30|}; {|tid != id|}; {|C1 > 30|}; {|C4 < 50|} ]

let phase1_order = [ {|C1 > 30|}; {|C4 < 50|}; {|C2 = C3|}; {|tid != id|} ]

(* What one run leaves behind.  Phase 1 makes no protocol-transcript
   observations of its own (only the per-query ∩ₛ does), so the order
   shows in the other two: the blind TTP's ledger holds the cross
   clauses' blinded columns in evaluation order, and local clauses take
   no virtual time, so running one later shifts every span after it. *)
type run_view = {
  transcript : string list;
  ledgers : string list;
  spans : string list;
}

let run_view cluster transcript =
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  {
    transcript =
      List.map
        (fun (e : Spec.Transcript.event) ->
          String.concat " | "
            [ Net.Node_id.to_string e.Smc.Proto_util.node;
              Net.Ledger.sensitivity_to_string e.Smc.Proto_util.sensitivity;
              e.Smc.Proto_util.tag;
              e.Smc.Proto_util.value;
              String.concat "/" e.Smc.Proto_util.phase
            ])
        (Spec.Transcript.events transcript);
    ledgers =
      List.concat_map
        (fun node ->
          List.map
            (fun (sensitivity, tag, value) ->
              String.concat " | "
                [ Net.Node_id.to_string node;
                  Net.Ledger.sensitivity_to_string sensitivity;
                  tag;
                  value
                ])
            (Net.Ledger.observations ledger ~node))
        (auditor :: Net.Node_id.Ttp "query" :: Cluster.nodes cluster);
    spans =
      List.map
        (fun (span : Obs.Trace.span) ->
          Printf.sprintf "%s %d %.6f %.6f" span.Obs.Trace.name
            span.Obs.Trace.depth span.Obs.Trace.start_ms
            span.Obs.Trace.duration_ms)
        (Obs.Trace.spans ());
  }

let test_phase1_order () =
  let criteria = List.map parse phase1_batch in
  let session =
    let cluster, _ = Workload.Paper_example.build () in
    Obs.Trace.reset ();
    let (), transcript =
      Spec.Transcript.record (fun () ->
          match Audit_session.run cluster ~auditor criteria with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Audit_error.to_string e))
    in
    run_view cluster transcript
  in
  let by_hand =
    let cluster, _ = Workload.Paper_example.build () in
    let clauses =
      match
        Planner.plan_many (Cluster.fragmentation cluster)
          (List.map Query.normalize criteria)
      with
      | Ok multi ->
        List.concat_map (fun plan -> plan.Planner.clauses) multi.Planner.plans
      | Error e -> Alcotest.fail (Audit_error.to_string e)
    in
    let clause_of s =
      let key =
        match Query.normalize (parse s) with
        | [ clause ] -> Planner.clause_key clause
        | _ -> Alcotest.failf "%s is not one clause" s
      in
      List.find
        (fun clause ->
          Planner.clause_key
            (List.map (fun { Planner.atom; _ } -> atom) clause.Planner.atoms)
          = key)
        clauses
    in
    let cache = Executor.cache_create () in
    Obs.Trace.reset ();
    let (), transcript =
      Spec.Transcript.record (fun () ->
          Smc.Proto_util.span (Cluster.net cluster) "session.audit" (fun () ->
              List.iter
                (fun s ->
                  Executor.warm_clause cluster ~cache (clause_of s))
                phase1_order;
              List.iter
                (fun q ->
                  match Executor.run cluster ~cache ~auditor q with
                  | Ok _ -> ()
                  | Error e -> Alcotest.fail (Audit_error.to_string e))
                criteria))
    in
    run_view cluster transcript
  in
  Alcotest.(check bool) "transcript recorded" true (session.transcript <> []);
  Alcotest.(check (list string)) "transcript" by_hand.transcript
    session.transcript;
  Alcotest.(check (list string)) "ledger views" by_hand.ledgers
    session.ledgers;
  Alcotest.(check (list string)) "span timeline" by_hand.spans session.spans

let () =
  Alcotest.run "session"
    [ ( "equivalence",
        [ Alcotest.test_case "batch = sequential across schedules" `Quick
            test_batch_equals_sequential_all_schedules;
          QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
          Alcotest.test_case "literal bytes never merge clauses" `Quick
            test_batch_literal_separators
        ] );
      ( "cost",
        [ Alcotest.test_case "batch strictly cheaper" `Quick
            test_batch_strictly_cheaper;
          Alcotest.test_case "metrics registry agrees" `Quick
            test_batch_metrics
        ] );
      ( "semantics",
        [ Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "count-only batch" `Quick test_batch_count_only;
          Alcotest.test_case "errors propagate" `Quick
            test_batch_error_propagates;
          Alcotest.test_case "degrade coverage honest" `Quick
            test_batch_degrade_coverage;
          Alcotest.test_case "phase-1 clause order" `Quick test_phase1_order
        ] )
    ]
