(* Tests for the query subsystem: parser, normalizer, planner, and the
   distributed executor.  The load-bearing property is
   executor-vs-oracle equivalence: the confidential distributed
   execution must return exactly the records that direct evaluation of
   the criteria against the reassembled global log returns. *)

open Dla

let d = Attribute.defined
let u = Attribute.undefined

let q s =
  match Query.parse s with
  | Ok query -> query
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  (match q "time > 100" with
  | Query.Atom { attr; op = Query.Gt; rhs = Query.Const (Value.Int 100) } ->
    Alcotest.(check string) "attr" "time" (Attribute.to_string attr)
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other));
  (match q {|id = "U1"|} with
  | Query.Atom { op = Query.Eq; rhs = Query.Const (Value.Str "U1"); _ } -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other));
  (match q "C2 <= 345.11" with
  | Query.Atom
      { attr = Attribute.Undefined 2; op = Query.Le;
        rhs = Query.Const (Value.Money 34511) } -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other));
  (match q "C1 != C2" with
  | Query.Atom
      { attr = Attribute.Undefined 1; op = Query.Ne;
        rhs = Query.Attr (Attribute.Undefined 2) } -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other))

let test_parse_connectives () =
  match q {|time > 100 && (id = "U1" || C1 < 40) && !(protocl = "UDP")|} with
  | Query.And (Query.Atom _, Query.And (Query.Or _, Query.Not (Query.Atom _)))
    -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other)

let test_parse_precedence () =
  (* && binds tighter than ||. *)
  match q {|a = 1 || b = 2 && c = 3|} with
  | Query.Or (Query.Atom _, Query.And (Query.Atom _, Query.Atom _)) -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Query.to_string other)

let test_parse_errors () =
  List.iter
    (fun input ->
      match Query.parse input with
      | Ok ast ->
        Alcotest.failf "expected parse error for %S, got %s" input
          (Query.to_string ast)
      | Error _ -> ())
    [ ""; "time >"; "time > 100 &&"; "(time > 100"; "time ~ 3";
      {|id = "unterminated|}; "time > 100 extra"; "&& time > 1"; "| a = 1" ]


let test_parse_in_and_between () =
  let cluster, _ = Workload.Paper_example.build () in
  let matching s =
    match Executor.run cluster ~auditor:Net.Node_id.Auditor (q s) with
    | Ok r -> List.length r.Executor.matching
    | Error e -> Alcotest.fail (Audit_error.to_string e)
  in
  (* 'in' desugars to equality disjunction. *)
  Alcotest.(check int) "id in (U1, U3)" 3 (matching {|id in ("U1", "U3")|});
  Alcotest.(check int) "same as ors" 3
    (matching {|id = "U1" || id = "U3"|});
  (* 'between' is an inclusive range. *)
  Alcotest.(check int) "C1 between 20 and 45" 3
    (matching "C1 between 20 and 45");
  Alcotest.(check int) "money between" 2
    (matching "C2 between 40.00 and 340.00");
  (* Errors. *)
  List.iter
    (fun s ->
      match Query.parse s with
      | Ok _ -> Alcotest.failf "expected error for %S" s
      | Error _ -> ())
    [ "id in ()"; "id in (\"a\" \"b\")"; "C1 between 1 2"; "id in"; "C1 between tid and 3" ]


let prop_parser_never_raises =
  (* Robustness: arbitrary input is rejected with Error, never an
     exception. *)
  QCheck.Test.make ~name:"parser is total (Result, no exceptions)" ~count:500
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 40) QCheck.Gen.printable)
    (fun input ->
      match Query.parse input with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let test_normalize_shapes () =
  (* (a || b) && c -> two clauses. *)
  let n = Query.normalize (q "(C1 = 1 || C1 = 2) && C2 > 3.00") in
  Alcotest.(check int) "clauses" 2 (List.length n);
  Alcotest.(check int) "atoms" 3 (Query.atom_count n);
  Alcotest.(check int) "conjuncts" 1 (Query.conjunct_count n);
  (* a || (b && c) distributes into (a||b) && (a||c). *)
  let n = Query.normalize (q "C1 = 1 || (C1 = 2 && C2 > 3.00)") in
  Alcotest.(check int) "distributed clauses" 2 (List.length n);
  Alcotest.(check int) "distributed atoms" 4 (Query.atom_count n)

let test_normalize_negation () =
  match Query.normalize (q "!(C1 < 5)") with
  | [ [ { Query.op = Query.Ge; _ } ] ] -> ()
  | other ->
    Alcotest.failf "unexpected normal form: %s"
      (Format.asprintf "%a" Query.pp_normalized other)

let test_normalize_demorgan () =
  (* !(a && b) -> !a || !b : one clause with two flipped atoms. *)
  match Query.normalize (q "!(C1 < 5 && C2 = 3.00)") with
  | [ [ { Query.op = Query.Ge; _ }; { Query.op = Query.Ne; _ } ] ] -> ()
  | other ->
    Alcotest.failf "unexpected normal form: %s"
      (Format.asprintf "%a" Query.pp_normalized other)

let record_of_pairs pairs =
  Log_record.make ~glsn:(Glsn.of_string "1") ~origin:(Net.Node_id.User 0)
    ~attributes:pairs

let test_eval_basics () =
  let record =
    record_of_pairs
      [ (d "time", Value.Time 100); (d "id", Value.Str "U1");
        (u 1, Value.Int 20); (u 2, Value.Money 2345) ]
  in
  let check s expected =
    Alcotest.(check bool) s expected (Query.eval_record record (q s))
  in
  check "time > 50" true;
  check "time > 100" false;
  check "time >= 100" true;
  check {|id = "U1"|} true;
  check {|id != "U1"|} false;
  check "C1 < 40 && C2 > 3.00" true;
  check "C1 < 10 || C2 > 3.00" true;
  check "!(C1 < 10)" true;
  (* Missing attribute never matches, under either polarity. *)
  check "C3 = 5" false;
  check "!(C3 = 5)" false;
  (* Kind mismatch never matches. *)
  check {|C1 = "20"|} false

(* Random queries over the paper schema for the equivalence property
   (generator shared with the session suite). *)
let arbitrary_query =
  QCheck.make Generators.paper_query_gen ~print:Query.to_string

let prop_normalize_equivalent =
  QCheck.Test.make ~name:"normalize preserves semantics" ~count:300
    arbitrary_query
    (fun query ->
      let records =
        List.map
          (fun pairs ->
            record_of_pairs pairs)
          Workload.Paper_example.rows
      in
      let normalized = Query.normalize query in
      List.for_all
        (fun record ->
          Query.eval_record record query
          = Query.eval_normalized ~lookup:(Log_record.find record) normalized)
        records)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

let paper = Fragmentation.paper_partition

let plan_exn query =
  match Planner.plan paper (Query.normalize query) with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "plan: %s" (Audit_error.to_string e)

let test_planner_local_vs_cross () =
  (* time lives at P0, C2 at P1: attr-vs-attr across homes is cross. *)
  let plan = plan_exn (q "time > 100 && C2 = C5") in
  Alcotest.(check int) "total atoms" 2 plan.Planner.total_atoms;
  Alcotest.(check int) "cross atoms" 0 plan.Planner.cross_atoms;
  (* C2 and C5 are both at P1 -> local!  Use C2 vs C3 (P1 vs P2). *)
  let plan = plan_exn (q "time > 100 && C2 = C3") in
  Alcotest.(check int) "cross atoms" 1 plan.Planner.cross_atoms;
  Alcotest.(check int) "conjuncts" 1 plan.Planner.conjuncts

let test_planner_homes () =
  let plan = plan_exn (q {|time > 100 && id = "U1" && tid = "T1100265"|}) in
  let homes = List.map Net.Node_id.to_string (Planner.homes plan) in
  Alcotest.(check (list string)) "homes" [ "P0"; "P1"; "P2" ] homes

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_planner_unknown_attribute () =
  match Planner.plan paper (Query.normalize (q "nonexistent = 1")) with
  | Ok _ -> Alcotest.fail "expected planner error"
  | Error e ->
    Alcotest.(check bool) "mentions attribute" true
      (string_contains (Audit_error.to_string e) "nonexistent")


(* Clause keys are injective: two clauses have equal keys iff they hold
   the same atoms, counted with multiplicity, in any order.  String
   literals are drawn over an alphabet that holds the bytes an
   unprefixed key would use as separators.  A clause is paired with a
   fresh clause, with a reordering of itself (equal keys), or with one
   of its string atoms whose literal runs on with the rest of its key
   (equal keys under any format that only joins atom keys). *)
let spliced clause =
  let key = Planner.clause_key clause in
  List.filter_map
    (fun (atom : Query.atom) ->
      let own = Planner.clause_key [ atom ] in
      match atom.Query.rhs with
      | Query.Const (Value.Str s)
        when String.length key > String.length own
             && String.starts_with ~prefix:own key ->
        let rest =
          String.sub key (String.length own)
            (String.length key - String.length own)
        in
        Some [ { atom with Query.rhs = Query.Const (Value.Str (s ^ rest)) } ]
      | _ -> None)
    clause

let clause_pair_gen =
  let open QCheck.Gen in
  let literal =
    string_size
      ~gen:(oneofl [ '\000'; '\001'; '|'; ':'; '1'; 'a' ])
      (int_range 0 4)
  in
  let attr = oneofl [ d "id"; d "tid"; u 1; u 2 ] in
  let rhs =
    oneof
      [ map (fun a -> Query.Attr a) attr;
        map (fun s -> Query.Const (Value.Str s)) literal;
        map (fun i -> Query.Const (Value.Int i)) (int_range 0 1);
        map (fun i -> Query.Const (Value.Money i)) (int_range 0 1)
      ]
  in
  let atom =
    map3
      (fun attr op rhs -> { Query.attr; op; rhs })
      attr
      (oneofl Query.[ Eq; Ne; Lt; Gt ])
      rhs
  in
  let clause = list_size (int_range 1 3) atom in
  clause >>= fun a ->
  map
    (fun b -> (a, b))
    (oneof (clause :: shuffle_l a :: List.map return (spliced a)))

let prop_clause_key_injective =
  let show clause =
    String.concat " || "
      (List.map (fun a -> String.escaped (Query.to_string (Query.Atom a))) clause)
  in
  QCheck.Test.make ~name:"equal clause keys iff equal atoms" ~count:500
    (QCheck.make clause_pair_gen ~print:(fun (a, b) ->
         show a ^ "  vs  " ^ show b))
    (fun (a, b) ->
      String.equal (Planner.clause_key a) (Planner.clause_key b)
      = (List.sort compare a = List.sort compare b))

let prop_c_auditing_matches_brute_force =
  (* Eq 11's inputs (s, t, q) recomputed independently of the planner. *)
  QCheck.Test.make ~name:"c_auditing params match brute force" ~count:100
    arbitrary_query
    (fun query ->
      let normalized = Query.normalize query in
      match Planner.plan paper normalized with
      | Error _ -> QCheck.assume_fail ()
      | Ok plan ->
        let s_ref = Query.atom_count normalized in
        let q_ref = Query.conjunct_count normalized in
        let t_ref =
          List.fold_left
            (fun acc clause ->
              acc
              + List.length
                  (List.filter
                     (fun (atom : Query.atom) ->
                       match atom.Query.rhs with
                       | Query.Const _ -> false
                       | Query.Attr b ->
                         Fragmentation.home_of paper atom.Query.attr
                         <> Fragmentation.home_of paper b)
                     clause))
            0 normalized
        in
        let s, t, qc = Confidentiality.c_auditing_params plan in
        s = s_ref && t = t_ref && qc = q_ref)

(* ------------------------------------------------------------------ *)
(* Executor vs oracle                                                  *)
(* ------------------------------------------------------------------ *)

let auditor = Net.Node_id.Auditor

let oracle_matching cluster query =
  List.filter
    (fun glsn ->
      match Cluster.record_of cluster glsn with
      | Some record -> Query.eval_record record query
      | None -> false)
    (Cluster.all_glsns cluster)

(* Submit [rows] through one ticket; the cluster, for chaining. *)
let ingest cluster rows =
  let ticket =
    Cluster.issue_ticket cluster ~id:"T" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86400
  in
  List.iter
    (fun row ->
      match
        Cluster.to_result
          (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
             ~attributes:row)
      with
      | Ok _ -> ()
      | Error e -> failwith e)
    rows;
  cluster

let check_executor_matches_oracle cluster query =
  match Executor.run cluster ~auditor query with
  | Error e ->
    Alcotest.failf "executor: %s (%s)" (Audit_error.to_string e)
      (Query.to_string query)
  | Ok report ->
    Alcotest.(check (list string))
      (Query.to_string query)
      (List.map Glsn.to_string (oracle_matching cluster query))
      (List.map Glsn.to_string report.Executor.matching)

let test_executor_paper_queries () =
  let cluster, _ = Workload.Paper_example.build () in
  List.iter
    (fun s -> check_executor_matches_oracle cluster (q s))
    [ (* purely local *)
      {|id = "U1"|};
      {|protocl = "UDP"|};
      "C1 > 30";
      "C2 <= 345.11";
      (* local conjunctions across different homes *)
      {|protocl = "UDP" && C1 > 30|};
      {|id = "U2" && C2 < 100.00|};
      (* disjunction spanning homes *)
      {|id = "U3" || C1 < 21|};
      (* cross atoms: C2 (P1) vs C3 (P2) equality; id (P1) vs tid (P2) *)
      "C2 = C3";
      "id != tid";
      (* string ordering across nodes *)
      "id < tid";
      (* negation *)
      {|!(protocl = "UDP")|};
      (* three-clause conjunction with a cross atom *)
      {|time >= 0 && id != tid && C1 < 50|};
      (* no matches *)
      {|id = "U9"|}
    ]

let prop_executor_matches_oracle =
  QCheck.Test.make ~name:"distributed execution = direct evaluation"
    ~count:60 arbitrary_query
    (fun query ->
      let cluster, _ = Workload.Paper_example.build () in
      match Executor.run cluster ~auditor query with
      | Error _ -> QCheck.assume_fail ()
      | Ok report ->
        List.map Glsn.to_string report.Executor.matching
        = List.map Glsn.to_string (oracle_matching cluster query))

let test_executor_privacy () =
  let cluster, _ = Workload.Paper_example.build () in
  let query = q "C2 = C3 && time >= 0" in
  (match Executor.run cluster ~auditor query with
  | Error e -> Alcotest.failf "executor: %s" (Audit_error.to_string e)
  | Ok _ -> ());
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  (* The auditor never sees attribute values, only glsn's. *)
  List.iter
    (fun value ->
      Alcotest.(check bool)
        (Printf.sprintf "auditor never saw %s" value)
        false
        (Net.Ledger.saw_plaintext ledger ~node:auditor value))
    [ "C2=23.45"; "C2=345.11"; "id=U1" ];
  (* The TTP saw only blinded material. *)
  let ttp = Net.Node_id.Ttp "query" in
  List.iter
    (fun (sensitivity, _, _) ->
      Alcotest.(check bool) "ttp sensitivity" true
        (sensitivity = Net.Ledger.Blinded || sensitivity = Net.Ledger.Metadata))
    (Net.Ledger.observations ledger ~node:ttp)

let test_executor_c_auditing () =
  let cluster, _ = Workload.Paper_example.build () in
  (* One clause, one local atom: s=1, t=0, q=0 -> 0. *)
  (match Executor.run cluster ~auditor (q "C1 > 30") with
  | Ok r -> Alcotest.(check (float 1e-9)) "local only" 0.0 r.Executor.c_auditing
  | Error e -> Alcotest.fail (Audit_error.to_string e));
  (* Two clauses: local + cross: s=2, t=1, q=1 -> 2/3. *)
  match Executor.run cluster ~auditor (q "C1 > 30 && C2 = C3") with
  | Ok r ->
    Alcotest.(check (float 1e-9)) "mixed" (2.0 /. 3.0) r.Executor.c_auditing
  | Error e -> Alcotest.fail (Audit_error.to_string e)


let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse (to_string q) is semantically q" ~count:200
    arbitrary_query
    (fun query ->
      match Query.parse (Query.to_string query) with
      | Error _ -> false
      | Ok reparsed ->
        let records = List.map record_of_pairs Workload.Paper_example.rows in
        List.for_all
          (fun record ->
            Query.eval_record record query = Query.eval_record record reparsed)
          records)

let prop_executor_random_partition =
  (* The executor/oracle equivalence must hold for *any* disjoint
     fragmentation, not just the paper's. *)
  QCheck.Test.make ~name:"executor = oracle under random partitions" ~count:25
    (QCheck.pair arbitrary_query (QCheck.int_range 2 6))
    (fun (query, nodes) ->
      let attrs =
        [ d "time"; d "id"; d "protocl"; d "tid"; u 1; u 2; u 3 ]
      in
      let fragmentation =
        Fragmentation.round_robin ~nodes:(Net.Node_id.dla_ring nodes) ~attrs
      in
      let cluster =
        ingest (Cluster.create ~seed:nodes fragmentation)
          Workload.Paper_example.rows
      in
      match Executor.run cluster ~auditor query with
      | Error _ -> QCheck.assume_fail ()
      | Ok report ->
        List.map Glsn.to_string report.Executor.matching
        = List.map Glsn.to_string (oracle_matching cluster query))

(* Rows where the cross-atom operands tid, C2 and C3 are each absent a
   third of the time, and C3 is Money or Str: the blind TTP must drop
   glsns missing from either blinded column, and pairs whose comparison
   classes differ. *)
let sparse_rows_gen =
  let open QCheck.Gen in
  let maybe attr value_gen =
    frequency
      [ (1, return []); (2, map (fun v -> [ (attr, v) ]) value_gen) ]
  in
  let small_money = map (fun v -> Value.Money v) (int_range 0 12) in
  let row =
    let* id = map (fun i -> Printf.sprintf "U%d" i) (int_range 1 3) in
    let* tid =
      maybe (d "tid") (map (fun s -> Value.Str s) (oneofl [ "U1"; "U2"; "T1" ]))
    in
    let* c1 = int_range 0 60 in
    let* c2 = maybe (u 2) small_money in
    let* c3 =
      maybe (u 3)
        (oneof
           [ small_money;
             map (fun s -> Value.Str s) (oneofl [ "bank"; "salary" ]) ])
    in
    return
      ([ (d "time", Value.Time 1021234715); (d "id", Value.Str id);
         (d "protocl", Value.Str "UDP"); (u 1, Value.Int c1) ]
      @ tid @ c2 @ c3)
  in
  list_repeat 60 row

let prop_cross_atoms_on_sparse_rows =
  let queries =
    List.map q
      [ "C2 = C3"; "C2 < C3"; "C2 != C3"; "id != tid"; "id = tid";
        "!(C2 = C3)" ]
  in
  QCheck.Test.make ~name:"cross atoms = oracle on sparse mixed-class rows"
    ~count:20
    (QCheck.make sparse_rows_gen
       ~print:
         (QCheck.Print.list (fun row ->
              String.concat " "
                (List.map
                   (fun (a, v) -> Attribute.to_string a ^ "=" ^ Value.to_string v)
                   row))))
    (fun rows ->
      let cluster = ingest (Cluster.create ~seed:7 paper) rows in
      List.for_all
        (fun query ->
          match Executor.run cluster ~auditor query with
          | Error e ->
            QCheck.Test.fail_reportf "%s: %s" (Query.to_string query)
              (Audit_error.to_string e)
          | Ok report ->
            List.map Glsn.to_string report.Executor.matching
            = List.map Glsn.to_string (oracle_matching cluster query))
        queries)

let test_executor_count_only () =
  let cluster, _ = Workload.Paper_example.build () in
  match
    Executor.run cluster ~delivery:Executor.Count_only ~auditor
      (q {|protocl = "UDP"|})
  with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok report ->
    Alcotest.(check int) "count" 3 report.Executor.count;
    Alcotest.(check int) "no glsns delivered" 0
      (List.length report.Executor.matching);
    let ledger = Net.Network.ledger (Cluster.net cluster) in
    Alcotest.(check bool) "auditor saw the count" true
      (Net.Ledger.saw ledger ~node:auditor ~sensitivity:Net.Ledger.Aggregate "3")

(* Four paper-example audits covering cross atoms, local clauses,
   secret counting and a disjunction. *)
let paper_audits =
  [ (Executor.Glsns, "C2 = C3 && time >= 0");
    (Executor.Glsns, {|protocl = "UDP" && C1 > 30|});
    (Executor.Count_only, "C1 > 20 && C2 < 400");
    (Executor.Glsns, "id != tid || C1 > 50")
  ]

(* Ledger golden pin: the rendered observations of every node after a
   fixed paper-example scenario — [paper_audits], then a Pohlig–Hellman
   session — hashed line by line.  Typed payloads are rendered only when
   read; this pins that what is read is exactly the strings an eagerly
   rendering ledger stored. *)
let test_ledger_golden () =
  let cluster, _ = Workload.Paper_example.build () in
  List.iter
    (fun (delivery, text) ->
      match
        Auditor_engine.run cluster ~delivery ~auditor (Auditor_engine.Text text)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Audit_error.to_string e))
    paper_audits;
  let conjunction rng =
    Crypto.Commutative.pohlig_hellman rng
      (Crypto.Pohlig_hellman.generate_params
         (Numtheory.Prng.create ~seed:71) ~bits:64)
  in
  (match
     Audit_session.run_strings cluster ~conjunction ~auditor
       [ "C1 > 20 && C2 < 400"; "C2 = C3" ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Audit_error.to_string e));
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  let lines =
    List.concat_map
      (fun node ->
        List.map
          (fun (sensitivity, tag, value) ->
            String.concat " | "
              [ Net.Node_id.to_string node;
                Net.Ledger.sensitivity_to_string sensitivity; tag; value ])
          (Net.Ledger.observations ledger ~node))
      (auditor :: Net.Node_id.Ttp "query" :: Cluster.nodes cluster)
  in
  Alcotest.(check int) "observations" 130 (List.length lines);
  Alcotest.(check int) "size counts observations" 130 (Net.Ledger.size ledger);
  Alcotest.(check string) "rendered ledger digest"
    "d6bb003e20acd7f6383eb7f8b17c692872bb7d518836ed667a8a6e88ffcc59d1"
    (Crypto.Sha256.digest_hex (String.concat "\n" lines))

(* Audit text golden: what [pp_audit] and [Report.render] print for
   [paper_audits], mean C_store and mean C_query included. *)
let expected_pp_audits =
  {|criteria: (C2 = C3 && time >= 0)
matches: 0 record(s): 
C_auditing = 0.667   mean C_store = 0.000   mean C_query = 0.000
cost: 8 messages, 401 bytes, 6 rounds
criteria: (protocl = "UDP" && C1 > 30)
matches: 2 record(s): 139aef79, 139aef7a
C_auditing = 0.333   mean C_store = 1.714   mean C_query = 0.571
cost: 1 messages, 16 bytes, 1 rounds
criteria: (C1 > 20 && C2 < 400)
matches: 0 record(s): 
C_auditing = 0.333   mean C_store = 0.000   mean C_query = 0.000
cost: 4 messages, 200 bytes, 3 rounds
criteria: (id != tid || C1 > 50)
matches: 5 record(s): 139aef78, 139aef79, 139aef7a, 139aef7b, 139aef7c
C_auditing = 0.500   mean C_store = 1.714   mean C_query = 0.857
cost: 6 messages, 354 bytes, 5 rounds|}

let expected_report =
  {|====================================================================
AUDIT REPORT: paper example
cluster: 4 DLA node(s), 5 record(s); layout P0:time,C4; P1:eid,id,C2,C5; P2:tid,C3,C6; P3:ip,protocl,C1
====================================================================
AUDIT   (C2 = C3 && time >= 0)
        0 record(s): 
        C_auditing 0.667 | mean C_store 0.000 | mean C_query 0.000
        cost: 8 msgs, 401 bytes, 6 rounds
AUDIT   (protocl = "UDP" && C1 > 30)
        2 record(s): 139aef79, 139aef7a
        C_auditing 0.333 | mean C_store 1.714 | mean C_query 0.571
        cost: 1 msgs, 16 bytes, 1 rounds
AUDIT   (C1 > 20 && C2 < 400)
        0 record(s): 
        C_auditing 0.333 | mean C_store 0.000 | mean C_query 0.000
        cost: 4 msgs, 200 bytes, 3 rounds
AUDIT   (id != tid || C1 > 50)
        5 record(s): 139aef78, 139aef79, 139aef7a, 139aef7b, 139aef7c
        C_auditing 0.500 | mean C_store 1.714 | mean C_query 0.857
        cost: 6 msgs, 354 bytes, 5 rounds
====================================================================
auditor observations: 8 aggregate, 3 metadata, 0 share, 0 blinded, 0 plaintext
====================================================================
|}

let test_audit_text_golden () =
  let cluster, _ = Workload.Paper_example.build () in
  let report = Report.create ~title:"paper example" cluster in
  let printed =
    List.map
      (fun (delivery, text) ->
        match
          Auditor_engine.run cluster ~delivery ~auditor
            (Auditor_engine.Text text)
        with
        | Ok a ->
          Report.add_audit report a;
          Format.asprintf "%a" (Auditor_engine.pp_audit cluster) a
        | Error e -> Alcotest.fail (Audit_error.to_string e))
      paper_audits
  in
  Alcotest.(check string) "pp_audit" expected_pp_audits
    (String.concat "\n" printed);
  Alcotest.(check string) "Report.render" expected_report
    (Report.render report)

(* Reference for the on-read score: eq 10 over the matches as a
   filter_map and a plain mean, which [Auditor_engine.mean_c_store] must
   match bit for bit. *)
let reference_mean_c_store cluster (audit : Auditor_engine.audit) =
  let fragmentation = Cluster.fragmentation cluster in
  let stores =
    List.filter_map
      (fun glsn ->
        Option.map
          (Confidentiality.c_store fragmentation)
          (Cluster.record_of cluster glsn))
      audit.Auditor_engine.matching
  in
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  mean stores

let prop_mean_c_store_is_reference =
  QCheck.Test.make ~name:"on-read mean C_store = the audit loop it replaced"
    ~count:100
    (QCheck.pair
       (QCheck.make Generators.paper_population_gen)
       arbitrary_query)
    (fun (rows, query) ->
      let cluster = ingest (Cluster.create ~seed:7 paper) rows in
      match
        Auditor_engine.run cluster ~auditor (Auditor_engine.Criteria query)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok a ->
        Float.equal
          (Auditor_engine.mean_c_store cluster a)
          (reference_mean_c_store cluster a))

(* A cross atom compares strings NUL-padded to a common width, so a
   stored "U9\000" would blind exactly like "U9".  Submit rejects a
   string holding NUL, naming its attribute, and cross atoms over the
   would-be rows agree with the oracle. *)
let test_nul_strings_rejected () =
  let cluster, _ = Workload.Paper_example.build () in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T-nul" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Write ] ~ttl:86400
  in
  let row ~id ~tid =
    List.map
      (fun (attr, v) ->
        if Attribute.equal attr (d "id") then (attr, Value.Str id)
        else if Attribute.equal attr (d "tid") then (attr, Value.Str tid)
        else (attr, v))
      (List.hd Workload.Paper_example.rows)
  in
  let outcomes =
    List.map
      (fun (id, tid) ->
        Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
          ~attributes:(row ~id ~tid))
      [ ("U9", "U9\000"); ("a", "a\000\000") ]
  in
  List.iter
    (fun s -> check_executor_matches_oracle cluster (q s))
    [ "tid = id"; "tid > id"; "tid != id" ];
  List.iter
    (function
      | Cluster.Rejected reason ->
        Alcotest.(check bool) ("names tid: " ^ reason) true
          (string_contains reason "tid")
      | Cluster.Committed _ | Cluster.Committed_degraded _ ->
        Alcotest.fail "a string holding NUL was committed")
    outcomes

(* One attribute stored on two nodes: the record no longer reassembles
   ([Cluster.record_of] is [None]).  The audit reassembles no record, so
   it still answers; the on-read score skips the one record it cannot
   rebuild. *)
let test_audit_with_unassemblable_match () =
  let cluster, glsns = Workload.Paper_example.build () in
  let tampered = List.hd glsns in
  Alcotest.(check bool) "id planted on P0" true
    (Storage.tamper_set
       (Cluster.store_of cluster (Net.Node_id.Dla 0))
       ~glsn:tampered ~attr:(d "id") (Value.Str "U1"));
  Alcotest.(check bool) "the record no longer reassembles" true
    (Cluster.record_of cluster tampered = None);
  let audit delivery =
    match
      Auditor_engine.run cluster ~delivery ~auditor
        (Auditor_engine.Text "time >= 0")
    with
    | Ok a -> a
    | Error e -> Alcotest.fail (Audit_error.to_string e)
  in
  Alcotest.(check int) "count-only count" 5
    (audit Executor.Count_only).Auditor_engine.count;
  let a = audit Executor.Glsns in
  Alcotest.(check (list string)) "every glsn delivered"
    (List.map Glsn.to_string glsns)
    (List.map Glsn.to_string a.Auditor_engine.matching);
  let intact = List.filter_map (Cluster.record_of cluster) (List.tl glsns) in
  let expected =
    List.fold_left
      (fun acc r -> acc +. Confidentiality.c_store paper r)
      0.0 intact
    /. float_of_int (List.length intact)
  in
  Alcotest.(check (float 0.0)) "mean over the four that reassemble" expected
    (Auditor_engine.mean_c_store cluster a)

(* The other whole-cluster readers of [Cluster.record_of], on the same
   tampered cluster: export and the exposure sweep leave out the row
   that does not reassemble, and the integrity sweep reports it. *)
let test_readers_skip_unassemblable_row () =
  let cluster, glsns = Workload.Paper_example.build () in
  let tampered = List.hd glsns in
  ignore
    (Storage.tamper_set
       (Cluster.store_of cluster (Net.Node_id.Dla 0))
       ~glsn:tampered ~attr:(d "id") (Value.Str "U1"));
  let exported =
    List.filter
      (fun line -> String.starts_with ~prefix:"record|" line)
      (String.split_on_char '\n' (Snapshot.export cluster))
  in
  Alcotest.(check int) "export holds the four that reassemble" 4
    (List.length exported);
  let sweep = Exposure.sweep cluster in
  Alcotest.(check int) "one coalition per node" 4 (List.length sweep);
  let _, whole = List.nth sweep 3 in
  Alcotest.(check int) "every glsn counted" 5 whole.Exposure.records_total;
  Alcotest.(check int) "cells of the four that reassemble" 28
    whole.Exposure.cells_total;
  Alcotest.(check (list string)) "integrity reports the row"
    [ Glsn.to_string tampered ]
    (List.map
       (fun (g, _) -> Glsn.to_string g)
       (Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0)))

(* Audits over stores filled out of glsn order.  A node is down for the
   middle submits (its fragments are parked as hints), takes the later
   ones directly, and is then filled in behind them by
   [Cluster.drain_hints]; or it loses its middle rows, which
   [Replication.repair_node] restores.  Either way it stores older glsns
   below newer ones: the insert path, which a commit's append never
   takes. *)
let out_of_order_criteria =
  [ {|protocl = "UDP" && C1 > 30|} (* local conjunction *);
    "tid < C3" (* two columns of one node *);
    "C2 = C3";
    "tid != id" (* cross *);
    {|time >= 1021234715 && id = "U1"|} (* multi-home *) ]

let prop_audits_over_out_of_order_stores =
  let population = Generators.paper_population_gen in
  QCheck.Test.make ~name:"audits over out-of-order stores = oracle" ~count:40
    (QCheck.make
       QCheck.Gen.(
         triple
           (triple population population population)
           (int_range 0 3) bool))
    (fun ((before, during, after), victim, drain) ->
      let victim = Net.Node_id.Dla victim in
      let cluster = Cluster.create ~seed:11 paper in
      let net = Cluster.net cluster in
      if drain then begin
        ignore (ingest cluster before);
        Net.Network.take_down net victim;
        ignore (ingest cluster during);
        Net.Network.bring_up net victim;
        Net.Retry.reinstate (Cluster.retry cluster) victim;
        ignore (ingest cluster after);
        ignore (Cluster.drain_hints cluster)
      end
      else begin
        ignore (ingest cluster (before @ during @ after));
        let replication = Replication.setup cluster ~degree:2 in
        ignore (Replication.replicate_all replication cluster);
        let first = List.length before in
        let last = first + List.length during in
        List.iteri
          (fun i glsn ->
            if i >= first && i < last then
              ignore
                (Storage.tamper_delete (Cluster.store_of cluster victim) ~glsn))
          (Cluster.all_glsns cluster);
        ignore (Replication.repair_node replication cluster ~node:victim)
      end;
      Storage.record_count (Cluster.store_of cluster victim)
      = List.length (Cluster.all_glsns cluster)
      && List.for_all
           (fun text ->
             match
               Auditor_engine.run cluster ~auditor (Auditor_engine.Text text)
             with
             | Ok a ->
               List.equal Glsn.equal a.Auditor_engine.matching
                 (oracle_matching cluster (q text))
             | Error _ -> false)
           out_of_order_criteria)

(* ------------------------------------------------------------------ *)
(* Confidentiality metrics                                             *)
(* ------------------------------------------------------------------ *)

let test_c_store_paper_rows () =
  let cluster, glsns = Workload.Paper_example.build () in
  let record =
    match Cluster.record_of cluster (List.hd glsns) with
    | Some r -> r
    | None -> Alcotest.fail "record missing"
  in
  let w, v, u = Confidentiality.c_store_params paper record in
  (* Table 1 rows: 7 attributes, 3 undefined (C1..C3), spread over 4 nodes. *)
  Alcotest.(check int) "w" 7 w;
  Alcotest.(check int) "v" 3 v;
  Alcotest.(check int) "u" 4 u;
  Alcotest.(check (float 1e-9)) "C_store = vu/w" (12.0 /. 7.0)
    (Confidentiality.c_store paper record);
  ignore cluster

let test_c_store_monotone_in_nodes () =
  (* Same record, wider spread -> higher C_store (the §5 observation). *)
  let attrs = List.init 6 (fun i -> u (i + 1)) in
  let record =
    record_of_pairs (List.map (fun a -> (a, Value.Int 1)) attrs)
  in
  let frag_of n =
    Fragmentation.round_robin ~nodes:(Net.Node_id.dla_ring n) ~attrs
  in
  let c2 = Confidentiality.c_store (frag_of 2) record in
  let c3 = Confidentiality.c_store (frag_of 3) record in
  let c6 = Confidentiality.c_store (frag_of 6) record in
  Alcotest.(check bool) "2 < 3" true (c2 < c3);
  Alcotest.(check bool) "3 < 6" true (c3 < c6)

let test_c_dla () =
  let cluster, glsns = Workload.Paper_example.build () in
  let records = List.filter_map (Cluster.record_of cluster) glsns in
  let queries = [ q "C1 > 30"; q "C2 = C3 && time >= 0" ] in
  match Confidentiality.c_dla paper ~queries ~records with
  | Ok c -> Alcotest.(check bool) "positive" true (c > 0.0)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Centralized baseline                                                *)
(* ------------------------------------------------------------------ *)

let test_centralized_matches_distributed () =
  let cluster, _ = Workload.Paper_example.build () in
  let central, _ = Workload.Paper_example.build_centralized () in
  List.iter
    (fun s ->
      let query = q s in
      let central_glsns = Centralized.query central query in
      let distributed =
        match Executor.run cluster ~auditor query with
        | Ok r -> r.Executor.matching
        | Error e -> Alcotest.fail (Audit_error.to_string e)
      in
      (* Same allocator start: positions coincide. *)
      Alcotest.(check (list string)) s
        (List.map Glsn.to_string central_glsns)
        (List.map Glsn.to_string distributed))
    [ {|id = "U1"|}; "C1 > 30"; "C2 = C3"; {|protocl = "TCP" && C1 < 60|} ]

let test_centralized_exposes_everything () =
  let central, _ = Workload.Paper_example.build_centralized () in
  let ledger = Net.Network.ledger (Centralized.net central) in
  List.iter
    (fun value ->
      Alcotest.(check bool)
        (Printf.sprintf "auditor saw %s" value)
        true
        (Net.Ledger.saw_plaintext ledger ~node:(Centralized.auditor central)
           value))
    [ "id=U1"; "C2=345.11"; "C3=signature"; "protocl=TCP" ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "query"
    [ ( "parser",
        [ Alcotest.test_case "atoms" `Quick test_parse_atoms;
          Alcotest.test_case "connectives" `Quick test_parse_connectives;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "in / between sugar" `Quick test_parse_in_and_between;
          QCheck_alcotest.to_alcotest prop_parser_never_raises
        ] );
      ( "normalize",
        Alcotest.test_case "shapes" `Quick test_normalize_shapes
        :: Alcotest.test_case "negation" `Quick test_normalize_negation
        :: Alcotest.test_case "de morgan" `Quick test_normalize_demorgan
        :: Alcotest.test_case "eval basics" `Quick test_eval_basics
        :: qt [ prop_normalize_equivalent ] );
      ( "planner",
        [ Alcotest.test_case "local vs cross" `Quick test_planner_local_vs_cross;
          Alcotest.test_case "homes" `Quick test_planner_homes;
          Alcotest.test_case "unknown attribute" `Quick test_planner_unknown_attribute;
          QCheck_alcotest.to_alcotest prop_c_auditing_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_clause_key_injective
        ] );
      ( "executor",
        Alcotest.test_case "paper queries" `Quick test_executor_paper_queries
        :: Alcotest.test_case "privacy" `Quick test_executor_privacy
        :: Alcotest.test_case "c_auditing" `Quick test_executor_c_auditing
        :: Alcotest.test_case "count only" `Quick test_executor_count_only
        :: Alcotest.test_case "ledger golden" `Quick test_ledger_golden
        :: Alcotest.test_case "audit text golden" `Quick test_audit_text_golden
        :: Alcotest.test_case "strings holding NUL are rejected" `Quick
             test_nul_strings_rejected
        :: Alcotest.test_case "match that does not reassemble" `Quick
             test_audit_with_unassemblable_match
        :: Alcotest.test_case "readers skip a row that does not reassemble"
             `Quick test_readers_skip_unassemblable_row
        :: qt
             [ prop_executor_matches_oracle; prop_parse_print_roundtrip;
               prop_executor_random_partition;
               prop_cross_atoms_on_sparse_rows; prop_mean_c_store_is_reference;
               prop_audits_over_out_of_order_stores
             ] );
      ( "confidentiality",
        [ Alcotest.test_case "paper rows (eq 10)" `Quick test_c_store_paper_rows;
          Alcotest.test_case "monotone in nodes" `Quick test_c_store_monotone_in_nodes;
          Alcotest.test_case "c_dla" `Quick test_c_dla
        ] );
      ( "centralized",
        [ Alcotest.test_case "matches distributed" `Quick
            test_centralized_matches_distributed;
          Alcotest.test_case "exposes everything" `Quick
            test_centralized_exposes_everything
        ] )
    ]
