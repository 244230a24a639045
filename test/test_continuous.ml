(* Streaming continuous audits (ISSUE PR 7).

   The headline property is differential: for any generated transaction
   stream, registration schedule and network schedule, the incremental
   engine's standing verdicts are byte-identical, after every commit, to
   re-running {!Auditor_engine.run} from scratch at that instant.  On
   top of that: the checkpoint chain's qcheck tamper suite (drops,
   swaps, flips, splices, forged tails — all named with typed reasons),
   a deterministic rollback/retract test, and the Definition-1 privacy
   checks on checkpoint publication. *)

open Dla

let auditor = Net.Node_id.Auditor
let ttp = Net.Node_id.Ttp "query"
let d = Attribute.defined
let u = Attribute.undefined

let parse s =
  match Query.parse s with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* On the lossy schedule a from-scratch oracle run can lose one of its
   own SMC messages mid-audit.  The oracle is read-only, so retrying
   just the audit (same network, fresh draws from its loss RNG) mirrors
   the engine's internal loss handling without restarting the whole
   stream — the outer Schedule.run budget is reserved for losses in
   setup, where a restart is cheap. *)
let rec oracle_retry ?(attempts = 40) f =
  match f () with
  | result -> result
  | exception Net.Network.Partitioned { reason = "loss"; _ }
    when attempts > 1 ->
    oracle_retry ~attempts:(attempts - 1) f

(* ------------------------------------------------------------------ *)
(* Differential battery: incremental ≡ from-scratch                    *)
(* ------------------------------------------------------------------ *)

(* Rows over the paper schema, drawn near the Table 1 values (same
   universe as Generators.paper_query_gen's constants) so generated
   criteria match some rows and miss others. *)
let row_gen =
  let open QCheck.Gen in
  let* dt = int_range (-500) 500 in
  let* i = int_range 1 3 in
  let* proto = oneofl [ "UDP"; "TCP" ] in
  let* tid = oneofl [ "T1100265"; "T1100267" ] in
  let* c1 = int_range 0 60 in
  let* c2 = int_range 0 70000 in
  let* c3 = oneofl [ "signature"; "bank"; "account"; "salary" ] in
  return
    [ (d "time", Value.Time (1021234715 + dt));
      (d "id", Value.Str (Printf.sprintf "U%d" i));
      (d "protocl", Value.Str proto);
      (d "tid", Value.Str tid);
      (u 1, Value.Int c1);
      (u 2, Value.Money c2);
      (u 3, Value.Str c3)
    ]

(* A scenario: which schedule to replay on, the streamed rows, and 1–3
   standing criteria, each registered after a chosen commit (position 0
   = before any stream row) and optionally Count_only. *)
let scenario_gen =
  let open QCheck.Gen in
  let* sched_ix = int_range 0 2 in
  let* rows = list_size (int_range 0 6) row_gen in
  let* crits =
    list_size (int_range 1 3)
      (triple
         (int_range 0 (List.length rows))
         Generators.paper_query_gen bool)
  in
  return (sched_ix, rows, crits)

let scenario_print (sched_ix, rows, crits) =
  Printf.sprintf "schedule=%d rows=%d criteria=[%s]" sched_ix
    (List.length rows)
    (String.concat "; "
       (List.map
          (fun (at, q, count_only) ->
            Printf.sprintf "@%d%s %s" at
              (if count_only then " count-only" else "")
              (Query.to_string q))
          crits))

let check_parity cluster engine registered =
  List.iter
    (fun (sid, q, delivery) ->
      match
        oracle_retry (fun () ->
            Auditor_engine.run cluster ~delivery ~auditor
              (Auditor_engine.Criteria q))
      with
      | Error e ->
        Alcotest.failf "from-scratch audit of %s failed: %s"
          (Query.to_string q) (Audit_error.to_string e)
      | Ok oracle -> (
        match Continuous.Incremental.verdict engine sid with
        | None -> Alcotest.failf "no standing verdict for sid %d" sid
        | Some v ->
          Alcotest.(check (list string))
            (Printf.sprintf "matching of %s" (Query.to_string q))
            (List.map Glsn.to_string oracle.Auditor_engine.matching)
            (List.map Glsn.to_string v.Continuous.Incremental.matching);
          Alcotest.(check int)
            (Printf.sprintf "count of %s" (Query.to_string q))
            oracle.Auditor_engine.count v.Continuous.Incremental.count))
    registered

let run_differential (sched_ix, rows, crits) =
  let sched =
    List.nth (Spec.Schedule.suite ~seed:(Generators.chaos_seed ()) ()) sched_ix
  in
  Spec.Schedule.run sched (fun net ->
      let cluster, _ = Workload.Paper_example.build ~net () in
      let registry = Continuous.Registry.create cluster in
      let engine =
        Continuous.Incremental.create ~checkpoint_interval:3 registry
      in
      let ticket =
        Cluster.issue_ticket cluster ~id:"CT" ~principal:(Net.Node_id.User 7)
          ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
      in
      let registered = ref [] in
      let register_due k =
        List.iter
          (fun (at, q, count_only) ->
            if at = k then
              let delivery =
                if count_only then Executor.Count_only else Executor.Glsns
              in
              match
                Continuous.Incremental.register engine ~delivery
                  (Auditor_engine.Criteria q)
              with
              | Ok sid -> registered := !registered @ [ (sid, q, delivery) ]
              | Error e -> (
                (* a criterion the engine cannot stand must fail a
                   from-scratch audit with the same typed error *)
                match
                  oracle_retry (fun () ->
                      Auditor_engine.run cluster ~delivery ~auditor
                        (Auditor_engine.Criteria q))
                with
                | Error e' ->
                  Alcotest.(check string) "same typed error"
                    (Audit_error.to_string e) (Audit_error.to_string e')
                | Ok _ ->
                  Alcotest.failf "register rejected %s but from-scratch ran"
                    (Query.to_string q)))
          crits
      in
      register_due 0;
      check_parity cluster engine !registered;
      List.iteri
        (fun k row ->
          ignore
            (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 7)
               ~attributes:row);
          register_due (k + 1);
          check_parity cluster engine !registered)
        rows;
      (* the emitted delta stream replays to the advertised hash … *)
      let replayed =
        List.fold_left
          (fun h dl ->
            Crypto.Sha256.digest_hex
              (h ^ "|" ^ Continuous.Incremental.delta_to_string dl))
          Continuous.Checkpoint.genesis
          (Continuous.Incremental.deltas engine)
      in
      Alcotest.(check string) "delta-stream hash replays"
        (Continuous.Incremental.delta_stream_hash engine)
        replayed;
      (* … and the checkpoints cut along the way verify as a chain *)
      let chain = Continuous.Incremental.chain engine in
      (match
         Continuous.Checkpoint.verify_chain
           ?head:(Continuous.Checkpoint.head chain)
           (Continuous.Checkpoint.checkpoints chain)
       with
      | Ok () -> ()
      | Error t ->
        Alcotest.failf "honest chain rejected: %s"
          (Continuous.Checkpoint.tamper_to_string t));
      true)

let differential_prop =
  QCheck.Test.make ~count:25
    ~name:"incremental verdicts ≡ from-scratch after every commit"
    (QCheck.make ~print:scenario_print scenario_gen)
    run_differential

(* A rollback mid-transaction must retract the transient commit: the
   only path that emits [removed]. *)
let test_rollback_retracts () =
  let cluster, _ = Workload.Paper_example.build () in
  let registry = Continuous.Registry.create cluster in
  let engine = Continuous.Incremental.create registry in
  let q = parse {|id = "U9"|} in
  let sid =
    match Continuous.Incremental.register engine (Auditor_engine.Criteria q) with
    | Ok sid -> sid
    | Error e -> Alcotest.failf "register: %s" (Audit_error.to_string e)
  in
  (match Continuous.Incremental.verdict engine sid with
  | Some v ->
    Alcotest.(check int) "initially empty" 0 v.Continuous.Incremental.count
  | None -> Alcotest.fail "no verdict");
  let ticket =
    Cluster.issue_ticket cluster ~id:"RB" ~principal:(Net.Node_id.User 9)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
  in
  let row =
    [ (d "time", Value.Time 1021234999); (d "id", Value.Str "U9");
      (d "protocl", Value.Str "UDP"); (d "tid", Value.Str "T9");
      (u 1, Value.Int 9); (u 2, Value.Money 9); (u 3, Value.Str "bank")
    ]
  in
  (* second event's attribute is unsupported: the first event commits
     (the engine sees it), then the transaction rolls it back. *)
  (match
     Cluster.submit_transaction cluster ~ticket ~origin:(Net.Node_id.User 9)
       ~tsn:1 ~ttn:9
       ~events:[ row; [ (d "salary", Value.Money 1) ] ]
   with
  | Ok _ -> Alcotest.fail "expected transaction rejection"
  | Error _ -> ());
  let ds = Continuous.Incremental.deltas engine in
  let added_then_removed = function
    | Continuous.Incremental.Verdict_changed { added = _ :: _; _ } -> `Added
    | Continuous.Incremental.Verdict_changed { removed = _ :: _; _ } ->
      `Removed
    | _ -> `Other
  in
  Alcotest.(check bool) "transient match observed" true
    (List.exists (fun dl -> added_then_removed dl = `Added) ds);
  Alcotest.(check bool) "retraction emitted" true
    (List.exists (fun dl -> added_then_removed dl = `Removed) ds);
  (match Continuous.Incremental.verdict engine sid with
  | Some v ->
    Alcotest.(check int) "back to empty" 0 v.Continuous.Incremental.count
  | None -> Alcotest.fail "no verdict");
  match Auditor_engine.run cluster ~auditor (Auditor_engine.Criteria q) with
  | Ok a -> Alcotest.(check int) "from-scratch agrees" 0 a.Auditor_engine.count
  | Error e -> Alcotest.failf "oracle: %s" (Audit_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Checkpoint chain: honest verification + qcheck tamper suite         *)
(* ------------------------------------------------------------------ *)

let hex_of i = Crypto.Sha256.digest_hex (Printf.sprintf "field-%d" i)

let mk_chain fields =
  let chain = Continuous.Checkpoint.create () in
  List.iteri
    (fun i (acc, dh) ->
      ignore
        (Continuous.Checkpoint.append chain ~commits:((i + 1) * 2)
           ~accumulator:acc ~delta_hash:dh))
    fields;
  chain

let tamper_class = function
  | Continuous.Checkpoint.Bad_genesis _ -> "bad-genesis"
  | Continuous.Checkpoint.Bad_index _ -> "bad-index"
  | Continuous.Checkpoint.Bad_digest _ -> "bad-digest"
  | Continuous.Checkpoint.Broken_link _ -> "broken-link"
  | Continuous.Checkpoint.Head_mismatch _ -> "head-mismatch"

let expect_class name expected = function
  | Ok () -> Alcotest.failf "%s: tampered chain verified" name
  | Error t -> Alcotest.(check string) name expected (tamper_class t)

let test_honest_chains () =
  (match Continuous.Checkpoint.verify_chain [] with
  | Ok () -> ()
  | Error t ->
    Alcotest.failf "empty chain: %s" (Continuous.Checkpoint.tamper_to_string t));
  (* an anchor with no chain at all: everything was withheld *)
  expect_class "withheld chain" "head-mismatch"
    (Continuous.Checkpoint.verify_chain ~head:(hex_of 1) []);
  List.iter
    (fun n ->
      let chain =
        mk_chain (List.init n (fun i -> (hex_of i, hex_of (i + 100))))
      in
      let cps = Continuous.Checkpoint.checkpoints chain in
      Alcotest.(check bool)
        (Printf.sprintf "genesis link (n=%d)" n)
        true
        ((List.hd cps).Continuous.Checkpoint.prev
        = Continuous.Checkpoint.genesis);
      (match Continuous.Checkpoint.verify_chain cps with
      | Ok () -> ()
      | Error t ->
        Alcotest.failf "honest n=%d: %s" n
          (Continuous.Checkpoint.tamper_to_string t));
      match Continuous.Checkpoint.head chain with
      | None -> Alcotest.fail "no head"
      | Some h -> (
        match Continuous.Checkpoint.verify_chain ~head:h cps with
        | Ok () -> ()
        | Error t ->
          Alcotest.failf "honest anchored n=%d: %s" n
            (Continuous.Checkpoint.tamper_to_string t)))
    [ 1; 6 ]

type mutation = Drop | Swap | Flip_digest | Flip_acc | Splice | Forge_tail

let mutation_name = function
  | Drop -> "drop"
  | Swap -> "swap"
  | Flip_digest -> "flip-digest"
  | Flip_acc -> "flip-accumulator"
  | Splice -> "splice"
  | Forge_tail -> "forge-tail"

let remove_at i l = List.filteri (fun j _ -> j <> i) l

let replace_at i f l = List.mapi (fun j x -> if j = i then f x else x) l

let swap_at i l =
  List.mapi
    (fun j x ->
      if j = i then List.nth l (i + 1)
      else if j = i + 1 then List.nth l i
      else x)
    l

let flip_hex s i =
  let i = i mod String.length s in
  String.mapi
    (fun j c -> if j = i then (if c = '0' then '1' else '0') else c)
    s

(* An attacker who can recompute digests: any forged fields are made
   self-consistent, so only the linking rules can catch them. *)
let reforge c =
  { c with
    Continuous.Checkpoint.digest = Continuous.Checkpoint.recompute_digest c
  }

let tamper_case_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let* fields = list_repeat n (pair small_nat small_nat) in
  let* m =
    oneofl [ Drop; Swap; Flip_digest; Flip_acc; Splice; Forge_tail ]
  in
  let* pos = int_range 0 (n - 1) in
  return (n, fields, m, pos)

let tamper_print (n, _, m, pos) =
  Printf.sprintf "n=%d mutation=%s pos=%d" n (mutation_name m) pos

let run_tamper (n, fields, m, pos) =
  let chain =
    mk_chain (List.map (fun (a, b) -> (hex_of a, hex_of (b + 10000))) fields)
  in
  let anchor =
    match Continuous.Checkpoint.head chain with
    | Some h -> h
    | None -> Alcotest.fail "no head"
  in
  let cps = Continuous.Checkpoint.checkpoints chain in
  (match Continuous.Checkpoint.verify_chain ~head:anchor cps with
  | Ok () -> ()
  | Error t ->
    Alcotest.failf "honest chain rejected: %s"
      (Continuous.Checkpoint.tamper_to_string t));
  let mutated, expected =
    match m with
    | Drop ->
      ( remove_at pos cps,
        if pos = n - 1 then "head-mismatch" else "bad-index" )
    | Swap ->
      let p = min pos (n - 2) in
      (swap_at p cps, "bad-index")
    | Flip_digest ->
      ( replace_at pos
          (fun c ->
            { c with
              Continuous.Checkpoint.digest =
                flip_hex c.Continuous.Checkpoint.digest pos
            })
          cps,
        "bad-digest" )
    | Flip_acc ->
      ( replace_at pos
          (fun c ->
            { c with
              Continuous.Checkpoint.accumulator =
                flip_hex c.Continuous.Checkpoint.accumulator pos
            })
          cps,
        "bad-digest" )
    | Splice ->
      (* self-consistent forgery, but its prev points elsewhere *)
      ( replace_at pos
          (fun c ->
            reforge { c with Continuous.Checkpoint.prev = hex_of 424242 })
          cps,
        if pos = 0 then "bad-genesis" else "broken-link" )
    | Forge_tail ->
      (* correctly linked forged tail: only the anchor can tell *)
      let prev_digest =
        (List.nth cps (n - 2)).Continuous.Checkpoint.digest
      in
      ( replace_at (n - 1)
          (fun c ->
            reforge
              { c with
                Continuous.Checkpoint.commits =
                  c.Continuous.Checkpoint.commits + 1000;
                prev = prev_digest
              })
          cps,
        "head-mismatch" )
  in
  expect_class (mutation_name m) expected
    (Continuous.Checkpoint.verify_chain ~head:anchor mutated);
  true

let tamper_prop =
  QCheck.Test.make ~count:120
    ~name:"every generated mutation is named with a typed reason"
    (QCheck.make ~print:tamper_print tamper_case_gen)
    run_tamper

(* ------------------------------------------------------------------ *)
(* Checkpoint privacy (Definition 1, "ckpt:" event class)              *)
(* ------------------------------------------------------------------ *)

let specs =
  [ { Spec.View_auditor.node = auditor;
      role = Spec.View_auditor.Blind_ttp;
      secrets = [];
      allowed_outputs = []
    }
  ]

let reasons violations =
  List.map (fun v -> v.Spec.View_auditor.reason) violations

let test_publication_metadata_only () =
  let cluster, _ = Workload.Paper_example.build () in
  let registry = Continuous.Registry.create cluster in
  let engine = Continuous.Incremental.create registry in
  let cp, transcript =
    Spec.Transcript.record (fun () ->
        Continuous.Incremental.checkpoint_now engine)
  in
  Alcotest.(check bool) "published head is the chain head" true
    (Continuous.Checkpoint.head (Continuous.Incremental.chain engine)
    = Some cp.Continuous.Checkpoint.digest);
  Alcotest.(check int) "exactly one observation" 1
    (Spec.Transcript.size transcript);
  Alcotest.(check (list string)) "no violations" []
    (List.map Spec.View_auditor.violation_to_string
       (Spec.View_auditor.audit ~specs transcript))

let test_leaky_checkpoint_flagged () =
  let digest = Crypto.Sha256.digest_hex "head" in
  let _, transcript =
    Spec.Transcript.record (fun () ->
        let net = Net.Network.of_config (Net.Config.make ()) in
        Spec.Leaky_fixture.checkpoint_with_glsn ~net ~publisher:ttp
          ~verifier:auditor ~digest ~glsn:"17")
  in
  Alcotest.(check bool) "leaky fixture flagged" true
    (reasons (Spec.View_auditor.audit ~specs transcript)
    = [ Spec.View_auditor.Checkpoint_leak ])

let test_checkpoint_event_rules () =
  let record ~sensitivity value =
    let _, transcript =
      Spec.Transcript.record (fun () ->
          let net = Net.Network.of_config (Net.Config.make ()) in
          Smc.Proto_util.observe net ~node:auditor ~sensitivity
            ~tag:"ckpt:publish" (Net.Ledger.Text value))
    in
    reasons (Spec.View_auditor.audit ~specs transcript)
  in
  let digest = Crypto.Sha256.digest_hex "anchor" in
  Alcotest.(check bool) "bare digest at Metadata passes" true
    (record ~sensitivity:Net.Ledger.Metadata digest = []);
  Alcotest.(check bool) "non-digest payload flagged" true
    (record ~sensitivity:Net.Ledger.Metadata "42"
    = [ Spec.View_auditor.Checkpoint_leak ]);
  Alcotest.(check bool) "wrong sensitivity flagged" true
    (record ~sensitivity:Net.Ledger.Plaintext digest
    = [ Spec.View_auditor.Checkpoint_leak ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "continuous"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest differential_prop;
          Alcotest.test_case "transaction rollback retracts" `Quick
            test_rollback_retracts
        ] );
      ( "checkpoint-chain",
        [ Alcotest.test_case "honest chains of length 0/1/n verify" `Quick
            test_honest_chains;
          QCheck_alcotest.to_alcotest tamper_prop
        ] );
      ( "privacy",
        [ Alcotest.test_case "publication is metadata-only" `Quick
            test_publication_metadata_only;
          Alcotest.test_case "leaky checkpoint fixture flagged" `Quick
            test_leaky_checkpoint_flagged;
          Alcotest.test_case "ckpt event class rules" `Quick
            test_checkpoint_event_rules
        ] )
    ]
