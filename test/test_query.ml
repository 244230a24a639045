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
      let cluster = Cluster.create ~seed:nodes fragmentation in
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
        Workload.Paper_example.rows;
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
      let cluster = Cluster.create ~seed:7 paper in
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
          QCheck_alcotest.to_alcotest prop_c_auditing_matches_brute_force
        ] );
      ( "executor",
        Alcotest.test_case "paper queries" `Quick test_executor_paper_queries
        :: Alcotest.test_case "privacy" `Quick test_executor_privacy
        :: Alcotest.test_case "c_auditing" `Quick test_executor_c_auditing
        :: Alcotest.test_case "count only" `Quick test_executor_count_only
        :: qt
             [ prop_executor_matches_oracle; prop_parse_print_roundtrip;
               prop_executor_random_partition;
               prop_cross_atoms_on_sparse_rows ] );
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
