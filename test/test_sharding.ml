(* Sharded scatter-gather audits: differential shard-equivalence suite.

   The contract under test (ISSUE 9): a sharded fleet must return the
   same verdicts (matching record set, counts, coverage) as one
   unsharded cluster holding the same rows — across the three
   Spec.Schedule network schedules and generated shard counts — and the
   1-shard configuration must be byte-identical to the unsharded
   transcript (same glsn's, same wire bytes, zero cross-shard traffic).

   Records are compared by *submission tag*, not by glsn: each shard
   allocates from its own glsn range, so the same row lands on
   different glsn's in the two deployments; the submission index is the
   deployment-independent identity.

   Seeds: QCHECK_SEED drives generated queries/shard counts,
   CHAOS_SEED the network schedules.  Failures append a replayable
   description to $SHARDING_COUNTEREXAMPLE_OUT (default
   sharding-counterexample.txt), like the spec differential harness. *)

open Dla

let auditor = Net.Node_id.Auditor
let fragmentation = Fragmentation.paper_partition
let schedules = Spec.Schedule.suite ~seed:(Generators.chaos_seed ()) ()

(* Twelve submissions cycling the paper's five Table-1 rows across
   twelve distinct users, so every shard count 1..4 sees a non-trivial
   population split (FNV user routing spreads 12 users over the
   shards) while both deployments store identical row multisets. *)
let submissions =
  List.init 12 (fun i ->
      ( Net.Node_id.User (i + 1),
        List.nth Workload.Paper_example.rows (i mod 5) ))

let ingest_ticket_id origin =
  (* Same id scheme Sharding.submit uses, so the 1-shard ingest
     transcript is byte-identical to the reference. *)
  Printf.sprintf "shard-ingest:%s" (Net.Node_id.to_string origin)

let build_reference ?(seed = 7) ?net () =
  let net =
    match net with Some n -> n | None -> Net.Network.of_config (Net.Config.make ~seed ())
  in
  let cluster = Cluster.create ~seed ~net fragmentation in
  let tags = Hashtbl.create 16 in
  List.iteri
    (fun i (origin, attributes) ->
      let ticket =
        Cluster.issue_ticket cluster ~id:(ingest_ticket_id origin)
          ~principal:origin
          ~rights:[ Ticket.Read; Ticket.Write ]
          ~ttl:10_000_000
      in
      match Cluster.submit cluster ~ticket ~origin ~attributes with
      | Cluster.Committed glsn | Cluster.Committed_degraded (glsn, _) ->
        Hashtbl.replace tags (Glsn.to_string glsn) i
      | Cluster.Rejected reason ->
        Alcotest.failf "reference submit %d rejected: %s" i reason)
    submissions;
  (cluster, tags)

let build_sharded ?(seed = 7) ?net_of ~shards () =
  let fleet = Sharding.create ~seed ?net_of ~shards fragmentation in
  let tags = Hashtbl.create 16 in
  List.iteri
    (fun i (origin, attributes) ->
      match Sharding.submit fleet ~origin ~attributes with
      | Ok (_, glsn) -> Hashtbl.replace tags (Glsn.to_string glsn) i
      | Error reason -> Alcotest.failf "sharded submit %d rejected: %s" i reason)
    submissions;
  (fleet, tags)

let tags_of tbl glsns =
  List.sort compare
    (List.map
       (fun g ->
         match Hashtbl.find_opt tbl (Glsn.to_string g) with
         | Some tag -> tag
         | None -> Alcotest.failf "verdict names unknown glsn %s" (Glsn.to_string g))
       glsns)

(* A verdict reduced to deployment-independent form. *)
let reference_verdict cluster tags q =
  match Auditor_engine.run cluster ~auditor (Auditor_engine.Criteria q) with
  | Ok a ->
    Ok
      ( tags_of tags a.Auditor_engine.matching,
        a.Auditor_engine.count,
        a.Auditor_engine.coverage.Executor.complete )
  | Error e -> Error (Audit_error.to_string e)

let sharded_verdict fleet tags q =
  match Sharding.audit fleet ~auditor (Auditor_engine.Criteria q) with
  | Ok r ->
    Ok
      ( tags_of tags r.Sharding.merged.Auditor_engine.matching,
        r.Sharding.merged.Auditor_engine.count,
        r.Sharding.merged.Auditor_engine.coverage.Executor.complete )
  | Error e -> Error (Audit_error.to_string e)

let pp_verdict = function
  | Ok (tags, count, complete) ->
    Printf.sprintf "Ok(tags=[%s] count=%d complete=%b)"
      (String.concat "," (List.map string_of_int tags))
      count complete
  | Error e -> Printf.sprintf "Error(%s)" e

(* ------------------------------------------------------------------ *)
(* Counterexample recording (CI artifact)                              *)
(* ------------------------------------------------------------------ *)

let counterexample_path () =
  match Sys.getenv_opt "SHARDING_COUNTEREXAMPLE_OUT" with
  | Some p when String.length p > 0 -> p
  | _ -> "sharding-counterexample.txt"

let record_counterexample line =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (counterexample_path ())
  in
  output_string oc (line ^ "\n");
  close_out oc

let report_mismatch ~where ~query ~shards reference sharded =
  record_counterexample
    (Printf.sprintf
       "%s: QCHECK_SEED=%d CHAOS_SEED=%d shards=%d query=%s reference=%s \
        sharded=%s"
       where (Generators.qcheck_seed ()) (Generators.chaos_seed ()) shards
       (Query.to_string query) (pp_verdict reference) (pp_verdict sharded))

(* ------------------------------------------------------------------ *)
(* Fixed criteria across all three schedules                           *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Query.parse s with Ok q -> q | Error e -> Alcotest.fail e

let fixed_criteria =
  List.map parse
    [ {|C1 > 30|};
      {|protocl = "UDP"|};
      {|C1 > 30 && id != tid|};
      {|protocl = "UDP" && (C1 > 30 || time >= 1021234715)|};
      {|id = "U1" || id = "U2"|}
    ]

let test_schedules_differential () =
  List.iter
    (fun sched ->
      let sched_name = Spec.Schedule.name sched in
      List.iter
        (fun shards ->
          let reference =
            Spec.Schedule.run sched (fun net ->
                let cluster, tags = build_reference ~net () in
                List.map (reference_verdict cluster tags) fixed_criteria)
          in
          let sharded =
            Spec.Schedule.run_many sched ~count:shards (fun nets ->
                let arr = Array.of_list nets in
                let fleet, tags =
                  build_sharded ~net_of:(fun i -> arr.(i)) ~shards ()
                in
                List.map (sharded_verdict fleet tags) fixed_criteria)
          in
          List.iteri
            (fun i (r, s) ->
              if r <> s then
                report_mismatch ~where:"schedules" ~shards
                  ~query:(List.nth fixed_criteria i) r s;
              Alcotest.(check string)
                (Printf.sprintf "%s, %d shard(s): query %d" sched_name shards i)
                (pp_verdict r) (pp_verdict s))
            (List.combine reference sharded))
        [ 1; 2; 3 ])
    schedules

(* ------------------------------------------------------------------ *)
(* Generated queries × generated shard counts (qcheck)                 *)
(* ------------------------------------------------------------------ *)

let case_gen =
  let open QCheck.Gen in
  let* shards = int_range 1 4 in
  let* seed = int_range 1 50 in
  let* q = Generators.paper_query_gen in
  return (shards, seed, q)

let prop_differential =
  QCheck.Test.make
    ~name:"sharded scatter-gather = unsharded audit (generated)" ~count:40
    (QCheck.make
       ~print:(fun (shards, seed, q) ->
         Printf.sprintf "shards=%d seed=%d %s" shards seed (Query.to_string q))
       case_gen)
    (fun (shards, seed, q) ->
      let cluster, rtags = build_reference ~seed () in
      let reference = reference_verdict cluster rtags q in
      let fleet, stags = build_sharded ~seed ~shards () in
      let sharded = sharded_verdict fleet stags q in
      if reference <> sharded then (
        report_mismatch ~where:"qcheck" ~query:q ~shards reference sharded;
        false)
      else true)

(* Batched sessions: the sharded session must agree with the unsharded
   session entry-wise (the batch is duplicated against itself so the
   per-shard session caches and plan_many CSE both engage). *)
let prop_session_differential =
  QCheck.Test.make ~name:"sharded session = unsharded session (generated)"
    ~count:25
    (QCheck.make
       ~print:(fun (shards, seed, q) ->
         Printf.sprintf "shards=%d seed=%d %s" shards seed (Query.to_string q))
       case_gen)
    (fun (shards, seed, q) ->
      let batch = [ q; parse {|C1 > 30|}; q ] in
      let cluster, rtags = build_reference ~seed () in
      let reference =
        match Audit_session.run cluster ~auditor batch with
        | Ok summary ->
          Ok
            (List.map
               (fun e ->
                 (tags_of rtags e.Audit_session.matching, e.Audit_session.count))
               summary.Audit_session.entries)
        | Error e -> Error (Audit_error.to_string e)
      in
      let fleet, stags = build_sharded ~seed ~shards () in
      let sharded =
        match Sharding.run_session fleet ~auditor batch with
        | Ok session ->
          Ok
            (List.map
               (fun e ->
                 (tags_of stags e.Audit_session.matching, e.Audit_session.count))
               session.Sharding.merged.Audit_session.entries)
        | Error e -> Error (Audit_error.to_string e)
      in
      if reference <> sharded then (
        report_mismatch ~where:"session" ~query:q ~shards
          (Result.map (fun _ -> ([], 0, true)) reference)
          (Result.map (fun _ -> ([], 0, true)) sharded);
        false)
      else true)

(* ------------------------------------------------------------------ *)
(* 1 shard ≡ unsharded, byte for byte                                  *)
(* ------------------------------------------------------------------ *)

let test_one_shard_byte_identical () =
  let cluster, _ = build_reference () in
  let fleet, _ = build_sharded ~shards:1 () in
  let shard0 = List.hd (Sharding.shards fleet) in
  (* Identical glsn assignment: same allocator start, same submit
     order. *)
  Alcotest.(check (list string))
    "glsn-for-glsn identical log"
    (List.map Glsn.to_string (Cluster.all_glsns cluster))
    (List.map Glsn.to_string (Sharding.all_glsns fleet));
  (* Identical audit transcripts, query by query. *)
  List.iter
    (fun q ->
      match
        ( Auditor_engine.run cluster ~auditor (Auditor_engine.Criteria q),
          Sharding.audit fleet ~auditor (Auditor_engine.Criteria q) )
      with
      | Ok reference, Ok sharded ->
        let merged = sharded.Sharding.merged in
        Alcotest.(check int)
          "no cross-shard traffic" 0 sharded.Sharding.cross_shard_msgs;
        Alcotest.(check (list string))
          "same glsn verdict"
          (List.map Glsn.to_string reference.Auditor_engine.matching)
          (List.map Glsn.to_string merged.Auditor_engine.matching);
        Alcotest.(check int)
          "same count" reference.Auditor_engine.count
          merged.Auditor_engine.count;
        Alcotest.(check bool)
          "same coverage" true
          (reference.Auditor_engine.coverage = merged.Auditor_engine.coverage);
        Alcotest.(check int)
          "same messages" reference.Auditor_engine.messages
          merged.Auditor_engine.messages;
        Alcotest.(check int)
          "same bytes" reference.Auditor_engine.bytes
          merged.Auditor_engine.bytes;
        Alcotest.(check int)
          "same rounds" reference.Auditor_engine.rounds
          merged.Auditor_engine.rounds
      | Error e, _ | _, Error e ->
        Alcotest.failf "audit failed: %s" (Audit_error.to_string e))
    fixed_criteria;
  (* The whole transcript — ingest included — is the same wire bytes:
     the two networks carried identical traffic from construction. *)
  let r = Net.Network.stats (Cluster.net cluster) in
  let s = Net.Network.stats (Cluster.net shard0.Sharding.cluster) in
  Alcotest.(check int)
    "whole-run messages" r.Net.Network.messages s.Net.Network.messages;
  Alcotest.(check int) "whole-run bytes" r.Net.Network.bytes s.Net.Network.bytes;
  Alcotest.(check int)
    "whole-run rounds" r.Net.Network.rounds s.Net.Network.rounds

(* ------------------------------------------------------------------ *)
(* Fleet behavior beyond the differential                              *)
(* ------------------------------------------------------------------ *)

(* Population routing and range ownership are total and consistent:
   every committed glsn belongs to the shard that stored it. *)
let test_routing_consistent () =
  let fleet, _ = build_sharded ~shards:3 () in
  List.iter
    (fun (shard : Sharding.shard) ->
      List.iter
        (fun glsn ->
          match Sharding.owner_of fleet glsn with
          | Some owner ->
            Alcotest.(check string)
              (Printf.sprintf "glsn %s owned by its shard" (Glsn.to_string glsn))
              shard.Sharding.name owner.Sharding.name
          | None ->
            Alcotest.failf "glsn %s owned by no shard" (Glsn.to_string glsn))
        (Cluster.all_glsns shard.Sharding.cluster))
    (Sharding.shards fleet);
  (* The fixed layout's edges: shard i owns the 2^20 glsns from
     0x139aef78 + i·2^20, its first and last included; the glsns just
     below shard 0 and just past the last shard have no owner. *)
  let glsn g = Glsn.of_string (Printf.sprintf "%x" g) in
  let first i = 0x139aef78 + (i * (1 lsl 20)) in
  let owner g =
    Option.map (fun (s : Sharding.shard) -> s.Sharding.name)
      (Sharding.owner_of fleet (glsn g))
  in
  List.iter
    (fun (shard : Sharding.shard) ->
      let i = shard.Sharding.index in
      Alcotest.(check (option string))
        (shard.Sharding.name ^ " owns its first glsn")
        (Some shard.Sharding.name) (owner (first i));
      Alcotest.(check (option string))
        (shard.Sharding.name ^ " owns its last glsn")
        (Some shard.Sharding.name)
        (owner (first (i + 1) - 1)))
    (Sharding.shards fleet);
  Alcotest.(check (option string)) "below shard 0" None (owner (first 0 - 1));
  Alcotest.(check (option string))
    "past the last shard" None
    (owner (first (Sharding.shard_count fleet)));
  Alcotest.(check int)
    "fleet stores every submission"
    (List.length submissions)
    (Sharding.record_count fleet);
  (* At least two shards actually hold rows under the 12-user split. *)
  let populated =
    List.length
      (List.filter
         (fun (s : Sharding.shard) -> Cluster.record_count s.Sharding.cluster > 0)
         (Sharding.shards fleet))
  in
  Alcotest.(check bool) "population actually splits" true (populated >= 2)

(* Fleet-wide secret count: the federation path (S >= 2) and the direct
   path (S = 1) must both agree with the reference count. *)
let test_secret_count_total () =
  let criteria = {|protocl = "UDP"|} in
  let cluster, _ = build_reference () in
  let expected =
    match
      Auditor_engine.run cluster ~delivery:Executor.Count_only ~auditor
        (Auditor_engine.Text criteria)
    with
    | Ok a -> a.Auditor_engine.count
    | Error e -> Alcotest.fail (Audit_error.to_string e)
  in
  List.iter
    (fun shards ->
      let fleet, _ = build_sharded ~shards () in
      match Sharding.secret_count_total fleet ~auditor ~criteria with
      | Ok total ->
        Alcotest.(check int)
          (Printf.sprintf "%d-shard secret count" shards)
          expected total
      | Error e -> Alcotest.failf "%d-shard secret count: %s" shards e)
    [ 1; 2; 4 ]

(* Continuous registration is shard-aware: a standing criterion
   registered fleet-wide converges to the same verdict the on-demand
   scatter-gather audit returns, as rows stream into whichever shard
   owns each submitting user. *)
let test_continuous_shard_aware () =
  let fleet = Sharding.create ~seed:7 ~shards:3 fragmentation in
  let continuous = Sharding_continuous.create fleet in
  let q = parse {|C1 > 30|} in
  let sid =
    match
      Sharding_continuous.register continuous (Auditor_engine.Criteria q)
    with
    | Ok sid -> sid
    | Error e -> Alcotest.fail (Audit_error.to_string e)
  in
  let tags = Hashtbl.create 16 in
  List.iteri
    (fun i (origin, attributes) ->
      match Sharding.submit fleet ~origin ~attributes with
      | Ok (_, glsn) -> Hashtbl.replace tags (Glsn.to_string glsn) i
      | Error reason -> Alcotest.failf "submit %d rejected: %s" i reason)
    submissions;
  let standing =
    match Sharding_continuous.verdict continuous sid with
    | Some v -> v
    | None -> Alcotest.fail "standing verdict missing"
  in
  let on_demand =
    match Sharding.audit fleet ~auditor (Auditor_engine.Criteria q) with
    | Ok r -> r.Sharding.merged
    | Error e -> Alcotest.fail (Audit_error.to_string e)
  in
  Alcotest.(check (list int))
    "standing = on-demand (by tag)"
    (tags_of tags on_demand.Auditor_engine.matching)
    (tags_of tags standing.Continuous_incremental.matching);
  Alcotest.(check int)
    "standing count" on_demand.Auditor_engine.count
    standing.Continuous_incremental.count;
  Alcotest.(check bool)
    "standing complete" true standing.Continuous_incremental.complete;
  Alcotest.(check bool)
    "registered on every shard" true
    (List.for_all
       (fun (_, v) -> v.Continuous_incremental.count >= 0)
       (Sharding_continuous.per_shard_verdicts continuous sid)
    && List.length (Sharding_continuous.per_shard_verdicts continuous sid) = 3)

(* Byzantine quarantine stays confined to the shard whose node lied:
   the honest-path fleet audit fences nothing and matches the plain
   scatter-gather verdict. *)
let test_byzantine_honest_path () =
  let fleet, tags = build_sharded ~shards:2 () in
  let q = parse {|C1 > 30|} in
  match Sharding.byzantine_audit fleet ~auditor q with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok outcome ->
    let plain =
      match Sharding.audit fleet ~auditor (Auditor_engine.Criteria q) with
      | Ok r -> r.Sharding.merged
      | Error e -> Alcotest.fail (Audit_error.to_string e)
    in
    Alcotest.(check (list int))
      "byzantine honest path = plain verdict"
      (tags_of tags plain.Auditor_engine.matching)
      (tags_of tags outcome.Sharding.matching);
    Alcotest.(check int) "single attempt" 1 outcome.Sharding.attempts;
    Alcotest.(check int)
      "nothing quarantined" 0
      (List.length outcome.Sharding.quarantined)

(* An unknown attribute is a planner error inside every shard: each
   fleet operation returns it typed, at one shard and at three. *)
let test_unknown_attribute () =
  let q = parse {|nonexistent = 1|} in
  let expect what = function
    | Ok _ -> Alcotest.failf "%s: must fail" what
    | Error (Audit_error.Unknown_attribute { attr }) ->
      Alcotest.(check string) (what ^ ": attribute named") "nonexistent" attr
    | Error e ->
      Alcotest.failf "%s: wrong error %s" what (Audit_error.to_string e)
  in
  List.iter
    (fun shards ->
      let fleet, _ = build_sharded ~shards () in
      let what op = Printf.sprintf "%s, %d shard(s)" op shards in
      expect (what "audit")
        (Sharding.audit fleet ~auditor (Auditor_engine.Criteria q));
      expect (what "run_session")
        (Sharding.run_session fleet ~auditor [ parse {|C1 > 30|}; q ]);
      expect (what "byzantine_audit")
        (Sharding.byzantine_audit fleet ~auditor q))
    [ 1; 3 ]

let () =
  Alcotest.run "sharding"
    [ ( "differential",
        [ Alcotest.test_case "fixed criteria x 3 schedules x shard counts"
            `Slow test_schedules_differential;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_session_differential
        ] );
      ( "byte-identity",
        [ Alcotest.test_case "1 shard = unsharded transcript" `Quick
            test_one_shard_byte_identical
        ] );
      ( "fleet",
        [ Alcotest.test_case "routing consistent" `Quick
            test_routing_consistent;
          Alcotest.test_case "secret count total" `Quick
            test_secret_count_total;
          Alcotest.test_case "continuous shard-aware" `Quick
            test_continuous_shard_aware;
          Alcotest.test_case "byzantine honest path" `Quick
            test_byzantine_honest_path;
          Alcotest.test_case "unknown attribute typed" `Quick
            test_unknown_attribute
        ] )
    ]
