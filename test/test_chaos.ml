(* Chaos harness: seeded fault schedules against the fault-tolerant
   logging/audit pipeline (retry layer, hinted handoff, degraded
   execution).

   The governing property, asserted across every schedule: audit
   answers computed after faults + repair + drain are exactly the
   fault-free answers, and the confidentiality invariants (no node
   observes plaintext outside its own columns) hold throughout the
   fault window.

   All schedules are seeded and deterministic.  Set CHAOS_SEED=<n> to
   add one more seed to the sweep. *)

open Dla

let d = Attribute.defined
let u = Attribute.undefined

let row ~time ~id ~amount =
  [ (d "time", Value.Time time); (d "id", Value.Str id);
    (d "protocl", Value.Str "UDP"); (d "tid", Value.Str "T1100265");
    (u 1, Value.Int 20); (u 2, Value.Money amount); (u 3, Value.Str "sig")
  ]

let rows =
  [ row ~time:1000 ~id:"U1" ~amount:2345;
    row ~time:1060 ~id:"U2" ~amount:34511;
    row ~time:1120 ~id:"U1" ~amount:23500;
    row ~time:1180 ~id:"U1" ~amount:4502
  ]

let build_cluster ?net ~seed () =
  let cluster = Cluster.create ?net ~seed Fragmentation.paper_partition in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
  in
  (cluster, ticket)

let submit_ok cluster ticket attributes =
  match
    Cluster.to_result
      (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1) ~attributes)
  with
  | Ok glsn -> glsn
  | Error e -> Alcotest.failf "submit: %s" e

let audit_matching cluster criteria =
  match
    Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
      (Auditor_engine.Text criteria)
  with
  | Ok audit -> List.map Glsn.to_string audit.Auditor_engine.matching
  | Error e ->
    Alcotest.failf "audit %s: %s" criteria (Audit_error.to_string e)

(* Every Plaintext observation at a DLA node must be one of its own
   columns ("attr=value" with attr in its supported set) — the §2 claim,
   which hinted handoff and repair must not erode. *)
let assert_no_foreign_plaintext cluster =
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  let layout = Cluster.fragmentation cluster in
  (* Glsn identifiers are cluster-assigned metadata every node already
     stores (Definition 1's permitted secondary information) — seeing
     one in the clear, e.g. as a set-intersection element, widens no
     view. *)
  let is_glsn value =
    List.exists
      (fun g -> String.equal (Glsn.to_string g) value)
      (Cluster.all_glsns cluster)
  in
  List.iter
    (fun node ->
      let own =
        List.map Attribute.to_string
          (Attribute.Set.elements (Fragmentation.supported_by layout node))
      in
      List.iter
        (fun (sensitivity, tag, value) ->
          if sensitivity = Net.Ledger.Plaintext && not (is_glsn value) then begin
            let attr =
              match String.index_opt value '=' with
              | Some i -> String.sub value 0 i
              | None -> value
            in
            if not (List.mem attr own) then
              Alcotest.failf "%s observed foreign plaintext %S (tag %s)"
                (Net.Node_id.to_string node)
                value tag
          end)
        (Net.Ledger.observations ledger ~node))
    (Cluster.nodes cluster)

(* No torn records: every glsn any store knows is either fully placed at
   its home or parked as a hint for it — never half-committed. *)
let assert_no_torn_records cluster =
  let parked = Cluster.pending_hints cluster in
  List.iter
    (fun glsn ->
      List.iter
        (fun node ->
          let store = Cluster.store_of cluster node in
          let placed = Storage.fragment_of store glsn <> None in
          let hinted =
            List.exists
              (fun (_, target, g) ->
                Net.Node_id.equal target node && Glsn.equal g glsn)
              parked
          in
          if not (placed || hinted) then
            Alcotest.failf "torn record: %s missing at %s with no hint"
              (Glsn.to_string glsn)
              (Net.Node_id.to_string node);
          if placed && hinted then
            Alcotest.failf "record %s both placed and hinted at %s"
              (Glsn.to_string glsn)
              (Net.Node_id.to_string node))
        (Cluster.nodes cluster))
    (Cluster.all_glsns cluster)

(* ------------------------------------------------------------------ *)
(* The acceptance schedule                                             *)
(* ------------------------------------------------------------------ *)

let criteria = {|id = "U1" && C2 > 100.00|}

let run_acceptance_schedule ~seed ~crashed =
  (* Fault-free twin: same seed, no faults — the reference answer. *)
  let baseline, base_ticket = build_cluster ~seed () in
  List.iter (fun r -> ignore (submit_ok baseline base_ticket r)) rows;
  let expected = audit_matching baseline criteria in

  (* Chaos run: one DLA node crashes after the first event. *)
  let cluster, ticket = build_cluster ~seed () in
  let net = Cluster.net cluster in
  let victim = Net.Node_id.Dla crashed in
  let first = submit_ok cluster ticket (List.hd rows) in
  Net.Network.take_down net victim;
  let degraded =
    List.map
      (fun r ->
        match Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
                ~attributes:r
        with
        | Cluster.Committed_degraded (glsn, nodes) ->
          Alcotest.(check (list string))
            "degraded outcome names the crashed node"
            [ Net.Node_id.to_string victim ]
            (List.map Net.Node_id.to_string nodes);
          glsn
        | Cluster.Committed _ -> Alcotest.fail "expected Committed_degraded"
        | Cluster.Rejected e -> Alcotest.failf "rejected: %s" e)
      (List.tl rows)
  in
  (* The crashed node holds only the pre-crash row; the rest are parked
     on live ring successors, sealed. *)
  let victim_store = Cluster.store_of cluster victim in
  Alcotest.(check int) "victim kept only the pre-crash row" 1
    (Storage.record_count victim_store);
  Alcotest.(check bool) "pre-crash row intact" true
    (Storage.fragment_of victim_store first <> None);
  let parked = Cluster.pending_hints cluster in
  Alcotest.(check int) "one hint per degraded submit" (List.length degraded)
    (List.length parked);
  List.iter
    (fun (holder, target, _) ->
      Alcotest.(check string) "hints target the crashed node"
        (Net.Node_id.to_string victim)
        (Net.Node_id.to_string target);
      Alcotest.(check bool) "holder is a different, live node" true
        ((not (Net.Node_id.equal holder victim))
        && Net.Network.is_up net holder))
    parked;
  assert_no_torn_records cluster;
  Alcotest.(check bool) "failure detector suspects the victim" true
    (not (Net.Retry.reachable (Cluster.retry cluster) victim));

  (* Recovery: bring the node up, reinstate its breaker, drain. *)
  Net.Network.bring_up net victim;
  Net.Retry.reinstate (Cluster.retry cluster) victim;
  let drained = Cluster.drain_hints cluster in
  Alcotest.(check int) "every hint drained" (List.length degraded)
    (List.length drained);
  Alcotest.(check int) "no hints left parked" 0
    (List.length (Cluster.pending_hints cluster));
  Alcotest.(check int) "victim has full placement"
    (List.length rows)
    (Storage.record_count victim_store);
  assert_no_torn_records cluster;
  (* Drained rows carry the original data and ACL grants. *)
  List.iter
    (fun glsn ->
      Alcotest.(check bool)
        ("ACL grant for " ^ Glsn.to_string glsn)
        true
        (Access_control.authorizes (Storage.acl victim_store) ~ticket_id:"T1"
           glsn))
    (first :: degraded);
  Alcotest.(check int) "integrity sweep clean after drain" 0
    (List.length (Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0)));

  (* The audit answer equals the fault-free answer exactly. *)
  Alcotest.(check (list string)) "audit equals fault-free answer" expected
    (audit_matching cluster criteria);
  (* And the fault window widened nobody's observations. *)
  assert_no_foreign_plaintext cluster

let test_acceptance () = run_acceptance_schedule ~seed:42 ~crashed:1

let chaos_seeds = Generators.chaos_seeds

let test_schedule_sweep () =
  (* Same schedule, every seed, every choice of crashed node. *)
  List.iter
    (fun seed ->
      List.iter
        (fun crashed -> run_acceptance_schedule ~seed ~crashed)
        [ 0; 1; 2; 3 ])
    chaos_seeds

(* ------------------------------------------------------------------ *)
(* Strict durability and transaction rollback                          *)
(* ------------------------------------------------------------------ *)

let test_strict_rejects_cleanly () =
  let cluster, ticket = build_cluster ~seed:7 () in
  let net = Cluster.net cluster in
  ignore (submit_ok cluster ticket (List.hd rows));
  Net.Network.take_down net (Net.Node_id.Dla 2);
  (match
     Cluster.submit ~durability:Cluster.Strict cluster ~ticket
       ~origin:(Net.Node_id.User 1)
       ~attributes:(List.nth rows 1)
   with
  | Cluster.Rejected reason ->
    Alcotest.(check bool) "reason names the placement failure" true
      (String.length reason > 0)
  | Cluster.Committed _ | Cluster.Committed_degraded _ ->
    Alcotest.fail "strict submit must reject while a home node is down");
  (* Nothing was stored anywhere: no rows, no hints, no ACL grants. *)
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Net.Node_id.to_string node ^ " unchanged")
        (if Net.Network.is_up net node then 1 else 1)
        (Storage.record_count (Cluster.store_of cluster node)))
    (Cluster.nodes cluster);
  Alcotest.(check int) "no hints parked" 0
    (List.length (Cluster.pending_hints cluster));
  Alcotest.(check int) "one committed glsn" 1
    (List.length (Cluster.all_glsns cluster));
  (* The cluster still works once the node recovers. *)
  Net.Network.bring_up net (Net.Node_id.Dla 2);
  Net.Retry.reinstate (Cluster.retry cluster) (Net.Node_id.Dla 2);
  ignore (submit_ok cluster ticket (List.nth rows 2));
  Alcotest.(check int) "recovered" 2 (List.length (Cluster.all_glsns cluster))

let test_transaction_rollback () =
  let cluster, ticket = build_cluster ~seed:8 () in
  (* The second event carries an attribute no node supports, so the
     transaction fails after the first event was already placed; the
     prefix must be rolled back everywhere. *)
  (match
     Cluster.submit_transaction cluster ~ticket ~origin:(Net.Node_id.User 1)
       ~tsn:1 ~ttn:7
       ~events:[ List.hd rows; [ (d "salary", Value.Money 1) ] ]
   with
  | Ok _ -> Alcotest.fail "expected transaction rejection"
  | Error e ->
    Alcotest.(check string) "attribute error"
      "no DLA node supports attribute salary" e);
  List.iter
    (fun store ->
      Alcotest.(check int) "no rows survive rollback" 0
        (Storage.record_count store);
      Alcotest.(check int) "no hints survive rollback" 0 (Storage.hint_count store))
    (Cluster.stores cluster);
  Alcotest.(check int) "no glsns recorded" 0
    (List.length (Cluster.all_glsns cluster));
  (* A later, valid transaction still goes through. *)
  match
    Cluster.submit_transaction cluster ~ticket ~origin:(Net.Node_id.User 1)
      ~tsn:2 ~ttn:7
      ~events:[ List.hd rows; List.nth rows 1 ]
  with
  | Ok (txn, degraded) ->
    Alcotest.(check int) "two events" 2
      (List.length txn.Log_record.Transaction.records);
    Alcotest.(check int) "no degradation" 0 (List.length degraded)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Retry layer / failure detector                                      *)
(* ------------------------------------------------------------------ *)

let test_circuit_breaker_lifecycle () =
  let net = Net.Network.of_config (Net.Config.make ~seed:3 ()) in
  let retry =
    Net.Retry.create ~failure_threshold:3 ~cooldown_ms:100.0 ~seed:3 net
  in
  let dst = Net.Node_id.Dla 1 in
  let send () =
    Net.Retry.send retry ~src:(Net.Node_id.User 1) ~dst ~label:"probe"
      ~bytes:16
  in
  Alcotest.(check bool) "initially reachable" true (Net.Retry.reachable retry dst);
  Net.Network.take_down net dst;
  (match send () with
  | Net.Retry.Gave_up { attempts; _ } ->
    Alcotest.(check int) "all attempts burned" 5 attempts
  | Net.Retry.Sent _ -> Alcotest.fail "send to a down node cannot succeed");
  Alcotest.(check bool) "breaker open after threshold" true
    (Net.Retry.breaker_of retry dst = Net.Retry.Open);
  Alcotest.(check (list string)) "suspect list" [ Net.Node_id.to_string dst ]
    (List.map Net.Node_id.to_string (Net.Retry.suspects retry));
  (* While open: fast local failure, no network traffic. *)
  let before = (Net.Network.stats net).Net.Network.messages in
  (match send () with
  | Net.Retry.Gave_up { attempts; reason } ->
    Alcotest.(check int) "no attempts while open" 0 attempts;
    Alcotest.(check string) "fast-fail reason" "circuit open" reason
  | Net.Retry.Sent _ -> Alcotest.fail "open breaker must fast-fail");
  Alcotest.(check int) "no messages offered while open" before
    (Net.Network.stats net).Net.Network.messages;
  (* Cooldown elapses: half-open lets one probe through; a failed probe
     re-arms the breaker. *)
  Net.Retry.tick retry 150.0;
  Alcotest.(check bool) "half-open after cooldown" true
    (Net.Retry.breaker_of retry dst = Net.Retry.Half_open);
  ignore (send ());
  Alcotest.(check bool) "failed probe re-opens" true
    (Net.Retry.breaker_of retry dst = Net.Retry.Open);
  (* Recovery: next probe after cooldown succeeds and closes it. *)
  Net.Network.bring_up net dst;
  Net.Retry.tick retry 150.0;
  (match send () with
  | Net.Retry.Sent { attempts; _ } ->
    Alcotest.(check int) "first attempt lands" 1 attempts
  | Net.Retry.Gave_up { reason; _ } -> Alcotest.failf "probe failed: %s" reason);
  Alcotest.(check bool) "closed after successful probe" true
    (Net.Retry.breaker_of retry dst = Net.Retry.Closed);
  Alcotest.(check bool) "backoff charged virtual time" true
    (Net.Retry.waited_ms retry dst > 0.0)

let test_retry_beats_loss () =
  (* Under 30% seeded loss, bounded retries still deliver everything,
     and the drop accounting shows the lost attempts. *)
  let net = Net.Network.of_config (Net.Config.make ~seed:11 ~loss_rate:0.3 ()) in
  let retry = Net.Retry.create ~seed:11 net in
  let delivered = ref 0 and retried = ref 0 in
  for i = 0 to 39 do
    match
      Net.Retry.send retry ~src:(Net.Node_id.User 1)
        ~dst:(Net.Node_id.Dla (i mod 4))
        ~label:"log:fragment" ~bytes:64
    with
    | Net.Retry.Sent { attempts; _ } ->
      incr delivered;
      if attempts > 1 then incr retried
    | Net.Retry.Gave_up { reason; _ } -> Alcotest.failf "gave up: %s" reason
  done;
  Alcotest.(check int) "all delivered" 40 !delivered;
  Alcotest.(check bool) "some needed retries" true (!retried > 0);
  let stats = Net.Network.stats net in
  Alcotest.(check bool) "losses were accounted" true
    (stats.Net.Network.dropped > 0);
  Alcotest.(check bool) "per-label drop accounting" true
    (List.assoc_opt "log:fragment" stats.Net.Network.dropped_by_label
    <> None)

(* ------------------------------------------------------------------ *)
(* Degraded audit execution                                            *)
(* ------------------------------------------------------------------ *)

let populated ~seed =
  let cluster, ticket = build_cluster ~seed () in
  let glsns = List.map (fun r -> submit_ok cluster ticket r) rows in
  (cluster, glsns)

let parse_query s =
  match Query.parse s with Ok q -> q | Error e -> Alcotest.fail e

let test_degraded_audit_reports_coverage () =
  let cluster, glsns = populated ~seed:5 in
  let query = parse_query {|id = "U1" && time >= 0|} in
  Net.Network.take_down (Cluster.net cluster) (Net.Node_id.Dla 1);
  (* Fail mode: the historical behaviour — the partition surfaces. *)
  (match
     try
       ignore
         (Executor.run cluster ~auditor:Net.Node_id.Auditor query);
       `Returned
     with Net.Network.Partitioned _ -> `Raised
   with
  | `Raised -> ()
  | `Returned -> Alcotest.fail "Fail mode should raise on a down home");
  (* Degrade mode: always a report, with the gap disclosed. *)
  match
    Executor.run cluster ~on_failure:Executor.Degrade
      ~auditor:Net.Node_id.Auditor query
  with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok report ->
    let c = report.Executor.coverage in
    Alcotest.(check bool) "incomplete" false c.Executor.complete;
    Alcotest.(check (list string)) "names the down node" [ "P1" ]
      (List.map Net.Node_id.to_string c.Executor.unreachable);
    Alcotest.(check int) "id-clause skipped" 1 c.Executor.skipped_clauses;
    Alcotest.(check int) "time-clause evaluated" 1 c.Executor.evaluated_clauses;
    (* The evaluable clause (time >= 0) still answers exactly. *)
    Alcotest.(check int) "time clause matches everything"
      (List.length glsns) report.Executor.count

(* A partial clause entry must name every node its clause skipped, even
   one an earlier clause of the same query already marked down —
   otherwise the shared cache keeps serving the partial set after the
   node recovers. *)
let test_degraded_cache_entry_expires_on_recovery () =
  let query = parse_query {|id != "U3" && (id = "U2" || C1 > 50)|} in
  let p1 = Net.Node_id.Dla 1 in
  List.iter
    (fun (mode_name, on_failure) ->
      let cluster, _ = Workload.Paper_example.build () in
      let net = Cluster.net cluster in
      let cache = Executor.cache_create () in
      Net.Network.take_down net p1;
      (match
         Executor.run cluster ~on_failure:Executor.Degrade ~cache
           ~auditor:Net.Node_id.Auditor query
       with
      | Error e -> Alcotest.fail (Audit_error.to_string e)
      | Ok report ->
        Alcotest.(check bool) "partial while P1 is down" false
          report.Executor.coverage.Executor.complete);
      Net.Network.bring_up net p1;
      match
        Executor.run cluster ~on_failure ~cache ~auditor:Net.Node_id.Auditor
          query
      with
      | Error e -> Alcotest.fail (Audit_error.to_string e)
      | Ok report ->
        let c = report.Executor.coverage in
        Alcotest.(check int) (mode_name ^ ": count") 2 report.Executor.count;
        Alcotest.(check (list string))
          (mode_name ^ ": the U2 rows")
          [ "139aef79"; "139aef7b" ]
          (List.map Glsn.to_string report.Executor.matching);
        Alcotest.(check bool) (mode_name ^ ": complete") true
          c.Executor.complete;
        Alcotest.(check (list string))
          (mode_name ^ ": nothing unreachable")
          []
          (List.map Net.Node_id.to_string c.Executor.unreachable))
    [ ("Degrade", Executor.Degrade); ("Fail", Executor.Fail) ]

let test_degraded_audit_repairs_wiped_node () =
  (* A node crashed, lost its disk and came back empty: with a
     replication state supplied, the degraded executor restores the rows
     before evaluating, and the answer is exact (complete coverage). *)
  let cluster, glsns = populated ~seed:6 in
  let replication = Replication.setup cluster ~degree:2 in
  ignore (Replication.replicate_all replication cluster);
  let victim = Net.Node_id.Dla 1 in
  let store = Cluster.store_of cluster victim in
  List.iter (fun g -> ignore (Storage.tamper_delete store ~glsn:g)) glsns;
  Alcotest.(check int) "rows wiped" 0 (Storage.record_count store);
  let query = parse_query {|id = "U1"|} in
  match
    Executor.run cluster ~on_failure:Executor.Degrade ~replication
      ~auditor:Net.Node_id.Auditor query
  with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok report ->
    Alcotest.(check bool) "coverage complete after repair" true
      report.Executor.coverage.Executor.complete;
    Alcotest.(check int) "all rows restored first"
      (List.length glsns)
      (List.length report.Executor.coverage.Executor.repaired);
    Alcotest.(check int) "exact answer" 3 report.Executor.count;
    Alcotest.(check int) "store repopulated" (List.length glsns)
      (Storage.record_count store)

(* ------------------------------------------------------------------ *)
(* Satellites: successor validation and drop accounting               *)
(* ------------------------------------------------------------------ *)

let test_successors_rejects_non_member () =
  let ring = Net.Node_id.dla_ring 4 in
  Alcotest.(check (list string)) "wraps around" [ "P3"; "P0" ]
    (List.map Net.Node_id.to_string
       (Replication.successors ring (Net.Node_id.Dla 2) 2));
  Alcotest.check_raises "non-member owner"
    (Invalid_argument "Replication.successors: u9 is not a ring member")
    (fun () -> ignore (Replication.successors ring (Net.Node_id.User 9) 2))

let test_network_drop_accounting () =
  let net = Net.Network.of_config (Net.Config.make ~seed:1 ()) in
  let send dst label =
    ignore
      (Net.Network.send net ~src:(Net.Node_id.User 1) ~dst ~label ~bytes:32)
  in
  Net.Network.take_down net (Net.Node_id.Dla 3);
  send (Net.Node_id.Dla 0) "a";
  send (Net.Node_id.Dla 3) "a";
  send (Net.Node_id.Dla 3) "b";
  let stats = Net.Network.stats net in
  Alcotest.(check int) "delivered" 1 stats.Net.Network.messages;
  Alcotest.(check int) "dropped" 2 stats.Net.Network.dropped;
  Alcotest.(check (option int)) "per-label drops (a)" (Some 1)
    (List.assoc_opt "a" stats.Net.Network.dropped_by_label);
  Alcotest.(check (option int)) "per-label drops (b)" (Some 1)
    (List.assoc_opt "b" stats.Net.Network.dropped_by_label);
  Alcotest.(check (option int)) "delivered label" (Some 1)
    (List.assoc_opt "a" stats.Net.Network.by_label);
  Net.Network.reset_stats net;
  let stats = Net.Network.stats net in
  Alcotest.(check int) "dropped reset" 0 stats.Net.Network.dropped;
  Alcotest.(check int) "per-label reset" 0
    (List.length stats.Net.Network.dropped_by_label)

(* ------------------------------------------------------------------ *)
(* Property: repair over a lossy network never corrupts                *)
(* ------------------------------------------------------------------ *)

let prop_lossy_repair_never_corrupts =
  QCheck.Test.make ~name:"lossy repair restores or reports, never corrupts"
    ~count:25
    (QCheck.triple (QCheck.int_range 0 1000) (QCheck.int_range 0 3)
       (QCheck.int_range 5 25))
    (fun (seed, victim_index, loss_pct) ->
      let net =
        Net.Network.of_config (Net.Config.make ~seed ~loss_rate:(float_of_int loss_pct /. 100.0) ())
      in
      let cluster, ticket = build_cluster ~net ~seed () in
      let glsns = List.map (fun r -> submit_ok cluster ticket r) rows in
      ignore (Cluster.drain_hints cluster);
      let pre_wipe =
        List.map
          (fun g ->
            match Cluster.record_of cluster g with
            | Some r -> (g, Log_record.to_wire r)
            | None -> QCheck.Test.fail_report "record missing before wipe")
          glsns
      in
      let victim = Net.Node_id.Dla victim_index in
      let replication = Replication.setup cluster ~degree:2 in
      ignore
        (Replication.replicate_all ~retry:(Cluster.retry cluster) replication
           cluster);
      let store = Cluster.store_of cluster victim in
      List.iter (fun g -> ignore (Storage.tamper_delete store ~glsn:g)) glsns;
      let repaired =
        Replication.repair ~retry:(Cluster.retry cluster) replication cluster
      in
      List.for_all
        (fun (g, wire) ->
          match Storage.fragment_of store g with
          | None ->
            (* Left missing: must be reported as unrepaired, i.e. absent
               from the repaired list — an honest gap, not silence. *)
            not
              (List.exists
                 (fun (n, rg) ->
                   Net.Node_id.equal n victim && Glsn.equal rg g)
                 repaired)
          | Some _ -> (
            (* Restored: byte-identical to the pre-wipe record. *)
            match Cluster.record_of cluster g with
            | Some r -> String.equal (Log_record.to_wire r) wire
            | None -> false))
        pre_wipe)

(* ------------------------------------------------------------------ *)
(* Byzantine rounds: detect -> quarantine -> re-run                    *)
(* ------------------------------------------------------------------ *)

(* id homes at P1, time at P0: the conjunction crosses homes, so the
   final verdict rides the set-intersection ring the adversary attacks. *)
let byz_criteria = {|id = "U1" && time >= 1000|}

(* Three clause homes (P1, P0, P2) put both colluders on the ring. *)
let byz_criteria_3way = {|id = "U1" && time >= 1000 && tid = "T1100265"|}

let populated_twin ~seed =
  let cluster, ticket = build_cluster ~seed () in
  List.iter (fun r -> ignore (submit_ok cluster ticket r)) rows;
  cluster

let plain_matching cluster query =
  match Executor.run cluster ~auditor:Net.Node_id.Auditor query with
  | Ok r -> List.map Glsn.to_string r.Executor.matching
  | Error e -> Alcotest.failf "plain audit: %s" (Audit_error.to_string e)

let names = List.map Net.Node_id.to_string

let test_byzantine_quarantine_recovery () =
  let query = parse_query byz_criteria in
  let expected = plain_matching (populated_twin ~seed:42) query in
  let cluster = populated_twin ~seed:42 in
  let adv =
    Net.Adversary.create ~seed:5
      [ Net.Adversary.plan
          ~labels:[ "intersection:relay" ]
          (Net.Node_id.Dla 1) Net.Adversary.Corrupt
      ]
  in
  match
    Net.Adversary.with_active adv (fun () ->
        Byzantine.audit cluster ~auditor:Net.Node_id.Auditor query)
  with
  | Error e -> Alcotest.failf "verified audit: %s" (Audit_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "the adversary actually lied" true
      (Net.Adversary.injections adv <> []);
    Alcotest.(check (list string)) "recovered verdict equals clean answer"
      expected
      (List.map Glsn.to_string o.Byzantine.report.Executor.matching);
    Alcotest.(check int) "one accused round, one clean re-run" 2
      o.Byzantine.attempts;
    Alcotest.(check (list string)) "the liar was quarantined" [ "P1" ]
      (names o.Byzantine.quarantined);
    (match o.Byzantine.events with
    | [ ev ] ->
      Alcotest.(check int) "caught on the first attempt" 1 ev.Byzantine.attempt;
      Alcotest.(check (list string)) "detection event names the liar" [ "P1" ]
        (names ev.Byzantine.accused);
      Alcotest.(check bool) "detail says what happened" true
        (ev.Byzantine.detail <> "")
    | evs ->
      Alcotest.failf "expected exactly one detection event, got %d"
        (List.length evs));
    Alcotest.(check bool) "verification traffic accounted separately" true
      (o.Byzantine.verify_msgs > 0 && o.Byzantine.verify_bytes > 0);
    (* Rehost: the fenced process was replaced, so the cluster carries no
       quarantine after the audit and coverage is complete. *)
    Alcotest.(check (list string)) "no node left fenced after rehost" []
      (names (Cluster.quarantined cluster));
    Alcotest.(check bool) "accepted run has full coverage" true
      o.Byzantine.report.Executor.coverage.Executor.complete;
    assert_no_foreign_plaintext cluster

let test_byzantine_undetected_without_guard () =
  (* The motivating failure: without the round guard, the same lie
     silently corrupts the verdict — no error, wrong answer. *)
  let query = parse_query byz_criteria in
  let expected = plain_matching (populated_twin ~seed:43) query in
  Alcotest.(check bool) "clean verdict is non-trivial" true (expected <> []);
  let cluster = populated_twin ~seed:43 in
  let adv =
    Net.Adversary.create ~seed:5
      [ Net.Adversary.plan
          ~labels:[ "intersection:relay" ]
          (Net.Node_id.Dla 1) Net.Adversary.Corrupt
      ]
  in
  let tampered =
    Net.Adversary.with_active adv (fun () -> plain_matching cluster query)
  in
  Alcotest.(check bool) "the adversary actually lied" true
    (Net.Adversary.injections adv <> []);
  Alcotest.(check bool) "unguarded verdict is silently wrong" true
    (tampered <> expected)

let test_byzantine_exclude_coverage_debt () =
  let query = parse_query byz_criteria in
  let cluster = populated_twin ~seed:44 in
  let adv =
    Net.Adversary.create ~seed:5
      [ Net.Adversary.plan
          ~labels:[ "intersection:relay" ]
          (Net.Node_id.Dla 1) Net.Adversary.Corrupt
      ]
  in
  match
    Net.Adversary.with_active adv (fun () ->
        Byzantine.audit cluster ~recovery:Byzantine.Exclude
          ~auditor:Net.Node_id.Auditor query)
  with
  | Error e -> Alcotest.failf "verified audit: %s" (Audit_error.to_string e)
  | Ok o ->
    Alcotest.(check int) "one accused round, one degraded re-run" 2
      o.Byzantine.attempts;
    Alcotest.(check (list string)) "the liar stays fenced" [ "P1" ]
      (names (Cluster.quarantined cluster));
    let c = o.Byzantine.report.Executor.coverage in
    Alcotest.(check bool) "coverage debt disclosed" false c.Executor.complete;
    Alcotest.(check bool) "coverage names the fenced node" true
      (List.mem "P1" (names c.Executor.unreachable));
    Alcotest.(check int) "the liar's clause is dropped" 1
      c.Executor.skipped_clauses;
    (* The evaluable clause (time >= 1000) still answers exactly. *)
    Alcotest.(check int) "surviving clause answers over every row"
      (List.length rows) o.Byzantine.report.Executor.count;
    assert_no_foreign_plaintext cluster

let test_byzantine_over_tolerance () =
  let query = parse_query byz_criteria_3way in
  let cluster = populated_twin ~seed:45 in
  let adv =
    Net.Adversary.create ~seed:5
      [ Net.Adversary.plan
          ~labels:[ "intersection:relay"; "intersection:collect" ]
          (Net.Node_id.Dla 1) Net.Adversary.Corrupt;
        Net.Adversary.plan
          ~labels:[ "intersection:relay"; "intersection:collect" ]
          (Net.Node_id.Dla 2) Net.Adversary.Corrupt
      ]
  in
  match
    Net.Adversary.with_active adv (fun () ->
        Byzantine.audit cluster ~tolerance:1 ~auditor:Net.Node_id.Auditor
          query)
  with
  | Ok _ -> Alcotest.fail "collusion above tolerance must not yield a verdict"
  | Error (Audit_error.Byzantine_fault { accused; during; _ }) ->
    Alcotest.(check (list string)) "both colluders named" [ "P1"; "P2" ]
      (names accused);
    Alcotest.(check string) "failure attributed to the audit" "audit" during
  | Error e ->
    Alcotest.failf "expected Byzantine_fault, got %s" (Audit_error.to_string e)

let test_quarantine_purges_session_cache () =
  let cluster = populated_twin ~seed:46 in
  let cache = Executor.cache_create () in
  let query = parse_query byz_criteria in
  let run ?(on_failure = Executor.Fail) () =
    Executor.run cluster ~on_failure ~cache ~auditor:Net.Node_id.Auditor query
  in
  let expected =
    match run () with
    | Ok r -> List.map Glsn.to_string r.Executor.matching
    | Error e -> Alcotest.failf "first run: %s" (Audit_error.to_string e)
  in
  let hits0 = Executor.cache_hits cache in
  (match run () with
  | Ok r ->
    Alcotest.(check (list string)) "cached repeat is byte-identical" expected
      (List.map Glsn.to_string r.Executor.matching)
  | Error e -> Alcotest.failf "repeat run: %s" (Audit_error.to_string e));
  Alcotest.(check bool) "repeat was served from the cache" true
    (Executor.cache_hits cache > hits0);
  (* Quarantine taints every glsn set the node helped compute. *)
  Cluster.quarantine cluster (Net.Node_id.Dla 1);
  let removed = Executor.cache_purge cache ~nodes:[ Net.Node_id.Dla 1 ] in
  Alcotest.(check bool) "purge removed the tainted entries" true (removed > 0);
  Alcotest.(check int) "purge is idempotent" 0
    (Executor.cache_purge cache ~nodes:[ Net.Node_id.Dla 1 ]);
  (match run ~on_failure:Executor.Degrade () with
  | Ok r ->
    let c = r.Executor.coverage in
    Alcotest.(check bool) "fenced run discloses coverage debt" false
      c.Executor.complete;
    Alcotest.(check bool) "coverage names the quarantined node" true
      (List.mem "P1" (names c.Executor.unreachable))
  | Error e -> Alcotest.failf "degraded run: %s" (Audit_error.to_string e));
  (* Lifting the quarantine restores the exact answer (recomputed, not
     served stale). *)
  Cluster.lift_quarantine cluster (Net.Node_id.Dla 1);
  match run () with
  | Ok r ->
    Alcotest.(check (list string)) "exact answer again after lift" expected
      (List.map Glsn.to_string r.Executor.matching)
  | Error e -> Alcotest.failf "post-lift run: %s" (Audit_error.to_string e)

(* A Byzantine accusation mid-stream must purge the continuous engine's
   tainted incremental state (handed to the audit via [?cache]), and the
   next delta must rebuild from clean sources: the standing verdict
   keeps tracking the from-scratch answer exactly. *)
let test_quarantine_purges_continuous_state () =
  let query = parse_query byz_criteria in
  let expected = plain_matching (populated_twin ~seed:47) query in
  let cluster, ticket = build_cluster ~seed:47 () in
  List.iter (fun r -> ignore (submit_ok cluster ticket r)) rows;
  let registry = Continuous.Registry.create cluster in
  let engine = Continuous.Incremental.create registry in
  let sid =
    match
      Continuous.Incremental.register engine (Auditor_engine.Criteria query)
    with
    | Ok sid -> sid
    | Error e -> Alcotest.failf "register: %s" (Audit_error.to_string e)
  in
  let engine_matching () =
    match Continuous.Incremental.verdict engine sid with
    | Some v -> List.map Glsn.to_string v.Continuous.Incremental.matching
    | None -> Alcotest.fail "no standing verdict"
  in
  Alcotest.(check (list string)) "standing verdict before the attack" expected
    (engine_matching ());
  let invalidated0 = Obs.Metrics.get "audit.cache_invalidated" in
  let adv =
    Net.Adversary.create ~seed:5
      [ Net.Adversary.plan
          ~labels:[ "intersection:relay" ]
          (Net.Node_id.Dla 1) Net.Adversary.Corrupt
      ]
  in
  (match
     Net.Adversary.with_active adv (fun () ->
         Byzantine.audit cluster
           ~cache:(Continuous.Incremental.cache engine)
           ~auditor:Net.Node_id.Auditor query)
   with
  | Error e -> Alcotest.failf "verified audit: %s" (Audit_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "the adversary actually lied" true
      (Net.Adversary.injections adv <> []);
    Alcotest.(check (list string)) "the liar was quarantined" [ "P1" ]
      (names o.Byzantine.quarantined);
    Alcotest.(check (list string)) "recovered verdict equals clean answer"
      expected
      (List.map Glsn.to_string o.Byzantine.report.Executor.matching));
  Alcotest.(check bool) "quarantine purged the tainted incremental state" true
    (Obs.Metrics.get "audit.cache_invalidated" > invalidated0);
  (* Rehosted, so nothing stays fenced; the next commit's delta works
     against post-purge state and the standing verdict stays exact. *)
  Alcotest.(check (list string)) "no node left fenced" []
    (names (Cluster.quarantined cluster));
  let glsn = submit_ok cluster ticket (row ~time:2000 ~id:"U1" ~amount:777) in
  let expected_after = plain_matching cluster query in
  Alcotest.(check bool) "the new row matches the criterion" true
    (List.mem (Glsn.to_string glsn) expected_after);
  Alcotest.(check (list string))
    "post-attack standing verdict equals from-scratch" expected_after
    (engine_matching ())

let () =
  Alcotest.run "chaos"
    [ ( "schedule",
        [ Alcotest.test_case "acceptance: crash/park/drain/audit" `Quick
            test_acceptance;
          Alcotest.test_case "seed sweep, every crash site" `Slow
            test_schedule_sweep
        ] );
      ( "durability",
        [ Alcotest.test_case "strict rejects cleanly" `Quick
            test_strict_rejects_cleanly;
          Alcotest.test_case "transaction rollback" `Quick
            test_transaction_rollback
        ] );
      ( "retry",
        [ Alcotest.test_case "circuit breaker lifecycle" `Quick
            test_circuit_breaker_lifecycle;
          Alcotest.test_case "retries beat loss" `Quick test_retry_beats_loss
        ] );
      ( "degraded-audit",
        [ Alcotest.test_case "coverage reporting" `Quick
            test_degraded_audit_reports_coverage;
          Alcotest.test_case "partial cache entry expires on recovery" `Quick
            test_degraded_cache_entry_expires_on_recovery;
          Alcotest.test_case "repair-then-answer" `Quick
            test_degraded_audit_repairs_wiped_node
        ] );
      ( "satellites",
        [ Alcotest.test_case "successors validation" `Quick
            test_successors_rejects_non_member;
          Alcotest.test_case "drop accounting" `Quick
            test_network_drop_accounting
        ] );
      ( "byzantine",
        [ Alcotest.test_case "detect, quarantine, rehost, exact verdict" `Quick
            test_byzantine_quarantine_recovery;
          Alcotest.test_case "without the guard the lie lands silently" `Quick
            test_byzantine_undetected_without_guard;
          Alcotest.test_case "exclude mode reports coverage debt" `Quick
            test_byzantine_exclude_coverage_debt;
          Alcotest.test_case "collusion above tolerance is refused" `Quick
            test_byzantine_over_tolerance;
          Alcotest.test_case "quarantine purges the session cache" `Quick
            test_quarantine_purges_session_cache;
          Alcotest.test_case "quarantine purges continuous engine state"
            `Quick test_quarantine_purges_continuous_state
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_lossy_repair_never_corrupts ] )
    ]
