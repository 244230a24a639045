(* Spec-oracle conformance suite (paper §3, Definition 1).

   Differential testing: every §3 protocol (plus the weighted-sum and
   majority extensions) runs on generated inputs across three seeded
   network schedules — uniform, skewed latency, lossy-with-retries —
   and must (a) return exactly what the cleartext oracle returns and
   (b) leave every recorded per-node view simulatable from that node's
   own inputs and authorized outputs.  Failures append a replayable
   counterexample to Spec.Differential.counterexample_path ().

   Seeds: QCHECK_SEED picks the generated inputs, CHAOS_SEED the
   network schedules. *)

open Numtheory

let bn = Bignum.of_int
let dla = Net.Node_id.dla_ring
let ttp = Net.Node_id.Ttp "cmp"

let qseed = Generators.qcheck_seed ()
let case_count = Generators.env_int "SPEC_CASES" ~default:50
let schedules = Spec.Schedule.suite ~seed:(Generators.chaos_seed ()) ()

let participant node secrets =
  {
    Spec.View_auditor.node;
    role = Spec.View_auditor.Participant;
    secrets;
    allowed_outputs = [];
  }

let blind_ttp node allowed_outputs =
  {
    Spec.View_auditor.node;
    role = Spec.View_auditor.Blind_ttp;
    secrets = [];
    allowed_outputs;
  }

let show_strings l = "{" ^ String.concat "," l ^ "}"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let run_cases schedule cases =
  List.iter
    (fun case ->
      match Spec.Differential.check ~schedule case with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    cases

(* ------------------------------------------------------------------ *)
(* Differential cases, one builder per protocol family                 *)
(* ------------------------------------------------------------------ *)

let intersection_cases () =
  List.mapi
    (fun i (s1, s2, s3) ->
      let nodes = dla 3 in
      let parties =
        List.map2
          (fun node set -> { Smc.Set_intersection.node; set })
          nodes [ s1; s2; s3 ]
      in
      let receiver = List.hd nodes in
      let scheme_seed = qseed + (31 * i) in
      {
        Spec.Differential.protocol = "intersection";
        input = String.concat " " (List.map show_strings [ s1; s2; s3 ]);
        run =
          (fun net ->
            (Smc.Set_intersection.run ~net
               ~scheme:(Generators.xor_scheme scheme_seed)
               ~receiver parties)
              .Smc.Set_intersection.intersection);
        oracle = Spec.Oracle.intersection [ s1; s2; s3 ];
        equal = (fun a b -> a = b);
        show = show_strings;
        specs =
          (fun result ->
            List.map
              (fun (p : Smc.Set_intersection.party) ->
                if Net.Node_id.equal p.node receiver then
                  { (participant p.node p.set) with allowed_outputs = result }
                else participant p.node p.set)
              parties);
      })
    (Generators.cases ~seed:qseed ~count:case_count Generators.set_triple_gen)

let union_cases () =
  List.mapi
    (fun i (s1, s2, s3) ->
      let nodes = dla 3 in
      let parties =
        List.map2
          (fun node set -> { Smc.Set_union.node; set })
          nodes [ s1; s2; s3 ]
      in
      let receiver = List.hd nodes in
      let scheme_seed = qseed + (37 * i) in
      {
        Spec.Differential.protocol = "union";
        input = String.concat " " (List.map show_strings [ s1; s2; s3 ]);
        run =
          (fun net ->
            Smc.Set_union.run ~net
              ~scheme:(Generators.xor_scheme scheme_seed)
              ~rng:(Prng.create ~seed:scheme_seed)
              ~receiver parties);
        oracle = Spec.Oracle.union [ s1; s2; s3 ];
        equal = (fun a b -> a = b);
        show = show_strings;
        specs =
          (fun result ->
            (* The union is the receiver's authorized output — it may
               contain other parties' elements by design. *)
            List.map
              (fun (p : Smc.Set_union.party) ->
                if Net.Node_id.equal p.node receiver then
                  { (participant p.node p.set) with allowed_outputs = result }
                else participant p.node p.set)
              parties);
      })
    (Generators.cases ~seed:(qseed + 1) ~count:case_count
       Generators.set_triple_gen)

let equality_cases () =
  let p = Lazy.force Generators.sum_p in
  let top = Bignum.pred p in
  (* Domain edges always run: zero, the largest representable value,
     and the extreme unequal pair. *)
  let edges = [ (Bignum.zero, Bignum.zero); (top, top); (Bignum.zero, top) ] in
  let generated =
    List.map
      (fun (l, r) -> (bn l, bn r))
      (Generators.cases ~seed:(qseed + 2) ~count:case_count
         Generators.equality_pair_gen)
  in
  List.mapi
    (fun i (l, r) ->
      let lnode = Net.Node_id.Dla 0 and rnode = Net.Node_id.Dla 1 in
      let rng_seed = qseed + (41 * i) in
      {
        Spec.Differential.protocol = "equality";
        input =
          Printf.sprintf "%s =? %s" (Bignum.to_string l) (Bignum.to_string r);
        run =
          (fun net ->
            Smc.Equality.via_ttp ~net
              ~rng:(Prng.create ~seed:rng_seed)
              ~p ~ttp ~left:(lnode, l) ~right:(rnode, r));
        oracle = Spec.Oracle.equality l r;
        equal = Bool.equal;
        show = string_of_bool;
        specs =
          (fun _ ->
            [ participant lnode [ Bignum.to_string l ];
              participant rnode [ Bignum.to_string r ];
              blind_ttp ttp []
            ]);
      })
    (edges @ generated)

let ranking_cases () =
  (* Explicit tie shapes on top of the generated lists: the rank/holder
     conventions only differ from a naive sort on ties. *)
  let edges = [ [ 5; 5 ]; [ 3; 7; 3 ]; [ 0; 0; 0 ]; [ 9; 1; 9; 1 ] ] in
  let generated =
    Generators.cases ~seed:(qseed + 3) ~count:case_count
      (Generators.values_gen ~parties_min:2 ~parties_max:5 ~hi:1000 ())
  in
  List.mapi
    (fun i values ->
      let parties =
        List.mapi
          (fun j v -> { Smc.Ranking.node = Net.Node_id.Dla j; value = bn v })
          values
      in
      let pairs =
        List.map (fun (p : Smc.Ranking.party) -> (p.node, p.value)) parties
      in
      let rng_seed = qseed + (43 * i) in
      {
        Spec.Differential.protocol = "ranking";
        input =
          show_strings (List.map string_of_int values);
        run =
          (fun net ->
            Smc.Ranking.run ~net ~rng:(Prng.create ~seed:rng_seed) ~ttp parties);
        oracle = Spec.Oracle.ranking pairs;
        equal = (fun a b -> a = b);
        show =
          (fun v ->
            Printf.sprintf "max=%s min=%s ranks=[%s]"
              (Net.Node_id.to_string v.Smc.Ranking.max_holder)
              (Net.Node_id.to_string v.Smc.Ranking.min_holder)
              (String.concat ";"
                 (List.map
                    (fun (n, r) ->
                      Printf.sprintf "%s:%d" (Net.Node_id.to_string n) r)
                    v.Smc.Ranking.ranks)));
        specs =
          (fun verdict ->
            (* The TTP announces who holds the maximum: that identity is
               every party's authorized output. *)
            let announced =
              Net.Node_id.to_string verdict.Smc.Ranking.max_holder
            in
            blind_ttp ttp []
            :: List.map
                 (fun (p : Smc.Ranking.party) ->
                   { (participant p.node [ Bignum.to_string p.value ]) with
                     allowed_outputs = [ announced ]
                   })
                 parties);
      })
    (edges @ generated)

let sum_cases ~weighted () =
  let p = Lazy.force Generators.sum_p in
  let generated =
    Generators.cases
      ~seed:(qseed + if weighted then 5 else 4)
      ~count:case_count
      (Generators.values_gen ~parties_min:2 ~parties_max:5 ())
  in
  (* k sweeps 2..n per case, hitting the k = n edge regularly. *)
  List.mapi
    (fun i values ->
      let n = List.length values in
      let parties =
        List.mapi
          (fun j v -> { Smc.Sum.node = Net.Node_id.Dla j; value = bn v })
          values
      in
      let k = 2 + (i mod (n - 1)) in
      let weights =
        if weighted then
          List.mapi
            (fun j _ -> (Net.Node_id.Dla j, bn ((i + (3 * j)) mod 21)))
            values
        else []
      in
      let pairs = List.map (fun (p : Smc.Sum.party) -> (p.node, p.value)) parties in
      let receiver = Net.Node_id.Auditor in
      let rng_seed = qseed + (47 * i) in
      {
        Spec.Differential.protocol = (if weighted then "weighted-sum" else "sum");
        input =
          Printf.sprintf "k=%d %s%s" k
            (show_strings (List.map string_of_int values))
            (if weighted then
               " w="
               ^ show_strings
                   (List.map (fun (_, w) -> Bignum.to_string w) weights)
             else "");
        run =
          (fun net ->
            let rng = Prng.create ~seed:rng_seed in
            if weighted then
              Smc.Sum.run_weighted ~net ~rng ~p ~k ~receiver ~weights parties
            else Smc.Sum.run ~net ~rng ~p ~k ~receiver parties);
        oracle =
          (if weighted then
             Spec.Oracle.weighted_sum ~p ~weights pairs
           else Spec.Oracle.sum ~p (List.map snd pairs));
        equal = Bignum.equal;
        show = Bignum.to_string;
        specs =
          (fun total ->
            (* The receiver is a pure output party: its whole view must
               be shares plus exactly the final answer. *)
            blind_ttp receiver [ Bignum.to_string total ]
            :: List.map
                 (fun (p : Smc.Sum.party) ->
                   participant p.node [ Bignum.to_string p.value ])
                 parties);
      })
    generated

let majority_cases () =
  let generated =
    Generators.cases ~seed:(qseed + 6) ~count:case_count
      (Generators.votes_gen ())
  in
  List.mapi
    (fun i bools ->
      let votes =
        List.mapi
          (fun j b ->
            ( Net.Node_id.Dla j,
              if b then Smc.Majority.Approve else Smc.Majority.Reject ))
          bools
      in
      let rng_seed = qseed + (53 * i) in
      {
        Spec.Differential.protocol = "majority";
        input =
          show_strings
            (List.map (fun (_, v) -> Smc.Majority.vote_to_string v) votes);
        run =
          (fun net ->
            Smc.Majority.run ~net ~rng:(Prng.create ~seed:rng_seed) ~votes ());
        oracle = Spec.Oracle.majority votes;
        equal = (fun a b -> a = b);
        show =
          (fun o ->
            Printf.sprintf "%s (%d/%d)"
              (match o.Smc.Majority.verdict with
              | Some v -> Smc.Majority.vote_to_string v
              | None -> "tie")
              o.Smc.Majority.approvals o.Smc.Majority.rejections);
        specs =
          (fun _ ->
            (* Commit-then-reveal publishes every vote on purpose; the
               inputs are not secrets, only binding matters. *)
            List.map
              (fun (node, _) ->
                { (participant node []) with
                  allowed_outputs = [ "approve"; "reject"; "tie" ]
                })
              votes);
      })
    generated

(* ------------------------------------------------------------------ *)
(* Whole audits: Definition 1 where audits actually run                 *)
(* ------------------------------------------------------------------ *)

(* A generated population is logged, then one criterion is audited
   through Auditor_engine.run (or Sharding.audit on a fleet) with every
   observation the engine makes — ingest, blinded columns at the TTP,
   glsn sets, ring passes, the final answer — on the transcript. *)

let auditor = Net.Node_id.Auditor
let query_ttp = Net.Node_id.Ttp "query"
let paper = Dla.Fragmentation.paper_partition
let origin_of_row i = Net.Node_id.User (i + 1)

(* A verdict in deployment-independent form: matching rows by
   submission index, and the count.  [final] (what the auditor is owed)
   and [glsns] (every glsn assigned) name the deployment's glsns for
   the specs; [equal] ignores them. *)
type audit_verdict = {
  rows : int list;
  count : int;
  final : string list;
  glsns : string list;
}

let verdict_equal a b = a.rows = b.rows && a.count = b.count

let show_verdict v =
  Printf.sprintf "rows=[%s] count=%d"
    (String.concat "," (List.map string_of_int v.rows))
    v.count

let show_population rows =
  String.concat " / "
    (List.map
       (fun row ->
         String.concat " " (List.map Dla.Log_record.cell_to_string row))
       rows)

let audit_oracle rows delivery q =
  let matching =
    List.concat
      (List.mapi
         (fun i attributes ->
           let record =
             Dla.Log_record.make ~glsn:(Dla.Glsn.of_string "0")
               ~origin:(origin_of_row i) ~attributes
           in
           if Dla.Query.eval_record record q then [ i ] else [])
         rows)
  in
  {
    rows =
      (match delivery with Dla.Executor.Glsns -> matching | Count_only -> []);
    count = List.length matching;
    final = [];
    glsns = [];
  }

(* [answers] are the verdicts the auditor is handed: one audit, or
   each shard's — Sharding.audit returns them all as [per_shard], so
   under Count_only the auditor is owed every shard's count, not only
   their sum (Sharding.secret_count_total is the fleet count that hides
   them). *)
let verdict_of tags delivery glsns ~answers (a : Dla.Auditor_engine.audit) =
  let matching = List.map Dla.Glsn.to_string a.Dla.Auditor_engine.matching in
  {
    rows = List.sort compare (List.map (fun g -> List.assoc g tags) matching);
    count = a.Dla.Auditor_engine.count;
    final =
      (match delivery with
      | Dla.Executor.Glsns -> matching
      | Count_only ->
        List.map
          (fun (x : Dla.Auditor_engine.audit) ->
            string_of_int x.Dla.Auditor_engine.count)
          answers);
    glsns = List.map Dla.Glsn.to_string glsns;
  }

(* Each DLA node holds its own attr=value cells and may see any glsn
   (Definition 1's metadata); the blind TTP holds and is owed nothing;
   the auditor is owed exactly the final glsns or the count. *)
let audit_specs rows v =
  List.map
    (fun node ->
      let own =
        List.concat_map
          (List.filter_map (fun (a, value) ->
               match Dla.Fragmentation.home_of paper a with
               | Some home when Net.Node_id.equal home node ->
                 Some (Dla.Log_record.cell_to_string (a, value))
               | _ -> None))
          rows
      in
      { (participant node own) with allowed_outputs = v.glsns })
    (Dla.Fragmentation.nodes paper)
  @ [ blind_ttp query_ttp []; blind_ttp auditor v.final ]

let audit_or_fail = function
  | Ok a -> a
  | Error e -> failwith (Dla.Audit_error.to_string e)

let ingest_cluster net rows =
  let cluster = Dla.Cluster.create ~seed:7 ~net paper in
  let tags =
    List.mapi
      (fun i attributes ->
        let origin = origin_of_row i in
        let ticket =
          Dla.Cluster.issue_ticket cluster
            ~id:(Printf.sprintf "T%d" i) ~principal:origin
            ~rights:[ Dla.Ticket.Read; Dla.Ticket.Write ] ~ttl:86400
        in
        match
          Dla.Cluster.to_result
            (Dla.Cluster.submit cluster ~ticket ~origin ~attributes)
        with
        | Ok glsn -> (Dla.Glsn.to_string glsn, i)
        | Error e -> failwith e)
      rows
  in
  (cluster, tags)

let honest_audit cluster ~delivery q =
  Dla.Auditor_engine.run cluster ~delivery ~auditor
    (Dla.Auditor_engine.Criteria q)

let audit_case ?(audit = honest_audit) ~protocol (rows, q, delivery) =
  {
    Spec.Differential.protocol;
    input =
      Printf.sprintf "%s | %s" (Dla.Query.to_string q) (show_population rows);
    run =
      (fun net ->
        let cluster, tags = ingest_cluster net rows in
        let a = audit_or_fail (audit cluster ~delivery q) in
        verdict_of tags delivery (Dla.Cluster.all_glsns cluster) ~answers:[ a ]
          a);
    oracle = audit_oracle rows delivery q;
    equal = verdict_equal;
    show = show_verdict;
    specs = audit_specs rows;
  }

let sharded_audit_case ~shards (rows, q, delivery) =
  {
    Spec.Differential.protocol = Printf.sprintf "sharded-audit/%d" shards;
    input =
      Printf.sprintf "%s | %s" (Dla.Query.to_string q) (show_population rows);
    run =
      (fun nets ->
        let nets = Array.of_list nets in
        let fleet =
          Dla.Sharding.create ~seed:7 ~net_of:(Array.get nets) ~shards paper
        in
        let tags =
          List.mapi
            (fun i attributes ->
              match
                Dla.Sharding.submit fleet ~origin:(origin_of_row i) ~attributes
              with
              | Ok (_, glsn) -> (Dla.Glsn.to_string glsn, i)
              | Error e -> failwith e)
            rows
        in
        let sharded =
          audit_or_fail
            (Dla.Sharding.audit fleet ~delivery ~auditor
               (Dla.Auditor_engine.Criteria q))
        in
        verdict_of tags delivery (Dla.Sharding.all_glsns fleet)
          ~answers:(List.map snd sharded.Dla.Sharding.per_shard)
          sharded.Dla.Sharding.merged);
    oracle = audit_oracle rows delivery q;
    equal = verdict_equal;
    show = show_verdict;
    specs = audit_specs rows;
  }

let audit_inputs ~seed =
  let open QCheck.Gen in
  Generators.cases ~seed ~count:(max 1 (case_count / 5))
    (triple Generators.paper_population_gen Generators.paper_query_gen
       (oneofl [ Dla.Executor.Glsns; Dla.Executor.Count_only ]))

let run_fleet_cases schedule cases =
  List.iter
    (fun (shards, case) ->
      match Spec.Differential.check_fleet ~schedule ~count:shards case with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    cases

let audit_cases () =
  List.map (audit_case ~protocol:"audit") (audit_inputs ~seed:(qseed + 7))

let sharded_audit_cases () =
  List.mapi
    (fun i input ->
      let shards = 1 + (i mod 3) in
      (shards, sharded_audit_case ~shards input))
    (audit_inputs ~seed:(qseed + 8))

(* The paper's Table 1 and the criteria the view check was first run
   on: a cross atom with a local clause, two local homes, a disjunction
   with a cross atom, under both deliveries. *)
let paper_audit_inputs =
  let parse s =
    match Dla.Query.parse s with Ok q -> q | Error e -> failwith e
  in
  List.concat_map
    (fun text ->
      List.map
        (fun delivery -> (Workload.Paper_example.rows, parse text, delivery))
        [ Dla.Executor.Glsns; Dla.Executor.Count_only ])
    [ "C2 = C3 && time >= 0"; {|protocl = "UDP" && C1 > 30|};
      "C1 > 20 && C2 < 400"; "id != tid || C1 > 50" ]

let test_paper_audits_simulatable () =
  List.iter
    (fun schedule ->
      run_cases schedule
        (List.map (audit_case ~protocol:"audit") paper_audit_inputs);
      run_fleet_cases schedule
        (List.map
           (fun input -> (2, sharded_audit_case ~shards:2 input))
           paper_audit_inputs))
    schedules

let test_leaky_audit_rejected () =
  let path = Spec.Differential.counterexample_path () in
  let existed = Sys.file_exists path in
  let leaky =
    audit_case ~protocol:"leaky-audit"
      ~audit:(fun cluster ~delivery q ->
        Spec.Leaky_fixture.audit_leaking_column cluster ~delivery ~auditor
          ~attr:(Dla.Attribute.undefined 2) (Dla.Auditor_engine.Criteria q))
      (List.hd paper_audit_inputs)
  in
  let outcome = Spec.Differential.check ~schedule:(List.hd schedules) leaky in
  if not existed && Sys.file_exists path then Sys.remove path;
  (* The answer is the oracle's, so only the view check can object. *)
  match outcome with
  | Ok () -> Alcotest.fail "a TTP holding a plaintext column passed"
  | Error msg ->
    Alcotest.(check bool) "rejected for plaintext at the blind TTP" true
      (contains msg "view violations"
      && contains msg
           (Spec.View_auditor.reason_to_string
              Spec.View_auditor.Plaintext_at_ttp)
      && contains msg "C2=")

let families : (string * (Spec.Schedule.t -> unit)) list =
  [ ("intersection", fun s -> run_cases s (intersection_cases ()));
    ("union", fun s -> run_cases s (union_cases ()));
    ("equality", fun s -> run_cases s (equality_cases ()));
    ("ranking", fun s -> run_cases s (ranking_cases ()));
    ("sum", fun s -> run_cases s (sum_cases ~weighted:false ()));
    ("weighted-sum", fun s -> run_cases s (sum_cases ~weighted:true ()));
    ("majority", fun s -> run_cases s (majority_cases ()));
    ("audit", fun s -> run_cases s (audit_cases ()));
    ("sharded-audit", fun s -> run_fleet_cases s (sharded_audit_cases ()))
  ]

let differential_tests =
  List.concat_map
    (fun schedule ->
      let sname = Spec.Schedule.name schedule in
      List.map
        (fun (proto, check) ->
          Alcotest.test_case
            (Printf.sprintf "%s vs oracle [%s]" proto sname)
            `Slow
            (fun () -> check schedule))
        families)
    schedules

(* ------------------------------------------------------------------ *)
(* Oracle unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_oracle_figure4 () =
  Alcotest.(check (list string))
    "Figure 4 worked example" [ "e" ]
    (Spec.Oracle.intersection [ [ "c"; "d"; "e" ]; [ "d"; "e"; "f" ]; [ "e"; "f"; "g" ] ]);
  Alcotest.(check (list string))
    "union of the same sets"
    [ "c"; "d"; "e"; "f"; "g" ]
    (Spec.Oracle.union [ [ "c"; "d"; "e" ]; [ "d"; "e"; "f" ]; [ "e"; "f"; "g" ] ])

let test_oracle_edge_sets () =
  Alcotest.(check (list string)) "empty input" [] (Spec.Oracle.intersection []);
  Alcotest.(check (list string))
    "empty member annihilates" []
    (Spec.Oracle.intersection [ [ "a" ]; [] ]);
  Alcotest.(check (list string))
    "duplicates collapse" [ "a" ]
    (Spec.Oracle.union [ [ "a"; "a" ]; [ "a" ] ])

let test_oracle_ranking_ties () =
  (* The conventions under test: ties share the lower rank, min holder
     is the earliest tied party, max holder the latest. *)
  let nodes = dla 4 in
  let values = List.map2 (fun n v -> (n, bn v)) nodes [ 7; 3; 7; 3 ] in
  let v = Spec.Oracle.ranking values in
  Alcotest.(check string)
    "min is the first tied party" "P1"
    (Net.Node_id.to_string v.Smc.Ranking.min_holder);
  Alcotest.(check string)
    "max is the last tied party" "P2"
    (Net.Node_id.to_string v.Smc.Ranking.max_holder);
  Alcotest.(check (list (pair string int)))
    "tied ranks share the lower rank"
    [ ("P1", 1); ("P3", 1); ("P0", 3); ("P2", 3) ]
    (List.map
       (fun (n, r) -> (Net.Node_id.to_string n, r))
       v.Smc.Ranking.ranks)

let test_oracle_majority_tie () =
  let votes =
    [ (Net.Node_id.Dla 0, Smc.Majority.Approve);
      (Net.Node_id.Dla 1, Smc.Majority.Reject)
    ]
  in
  let o = Spec.Oracle.majority votes in
  Alcotest.(check bool) "tie verdict" true (o.Smc.Majority.verdict = None);
  Alcotest.(check int) "approvals" 1 o.Smc.Majority.approvals;
  Alcotest.(check int) "rejections" 1 o.Smc.Majority.rejections

let test_oracle_weighted_sum_defaults () =
  let p = Lazy.force Generators.sum_p in
  let total =
    Spec.Oracle.weighted_sum ~p
      ~weights:[ (Net.Node_id.Dla 0, bn 3) ]
      [ (Net.Node_id.Dla 0, bn 10); (Net.Node_id.Dla 1, bn 5) ]
  in
  (* Listed weight applies; unlisted party defaults to weight 1. *)
  Alcotest.(check string) "3*10 + 1*5" "35" (Bignum.to_string total)

(* ------------------------------------------------------------------ *)
(* Transcript recorder                                                 *)
(* ------------------------------------------------------------------ *)

let test_transcript_captures_views () =
  let p = Lazy.force Generators.sum_p in
  let parties =
    List.mapi (fun j v -> { Smc.Sum.node = Net.Node_id.Dla j; value = bn v })
      [ 10; 20; 30 ]
  in
  let total, transcript =
    Spec.Transcript.record (fun () ->
        let net = Net.Network.of_config (Net.Config.make ()) in
        Smc.Sum.run ~net ~rng:(Prng.create ~seed:77) ~p ~k:3
          ~receiver:Net.Node_id.Auditor parties)
  in
  Alcotest.(check string) "sum" "60" (Bignum.to_string total);
  Alcotest.(check bool) "events captured" true (Spec.Transcript.size transcript > 0);
  (* Every protocol principal shows up in the transcript. *)
  let observed = Spec.Transcript.nodes transcript in
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Net.Node_id.to_string node ^ " observed")
        true
        (List.exists (Net.Node_id.equal node) observed))
    (Net.Node_id.Auditor :: dla 3);
  (* The receiver's authorized output is exactly the total. *)
  Alcotest.(check (list string))
    "auditor aggregates" [ "60" ]
    (Spec.Transcript.aggregates transcript Net.Node_id.Auditor);
  (* Observations carry the span path of the phase they happened in. *)
  List.iter
    (fun (e : Spec.Transcript.event) ->
      match e.Smc.Proto_util.phase with
      | "smc.sum" :: _ -> ()
      | path ->
        Alcotest.failf "event %s tagged with phase %s" e.Smc.Proto_util.tag
          (String.concat "/" path))
    (Spec.Transcript.events transcript);
  (* The hook is uninstalled once record returns. *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ = Smc.Sum.naive ~net ~coordinator:Net.Node_id.Auditor parties in
  Alcotest.(check int) "no late capture" (Spec.Transcript.size transcript)
    (List.length (Spec.Transcript.events transcript))

(* ------------------------------------------------------------------ *)
(* View auditor                                                        *)
(* ------------------------------------------------------------------ *)

let record_events events =
  let _, transcript =
    Spec.Transcript.record (fun () ->
        let net = Net.Network.of_config (Net.Config.make ()) in
        List.iter
          (fun (node, sensitivity, value) ->
            Smc.Proto_util.observe net ~node ~sensitivity ~tag:"unit"
              (Net.Ledger.Text value))
          events)
  in
  transcript

let reasons violations =
  List.map (fun v -> v.Spec.View_auditor.reason) violations

let test_auditor_rules () =
  let alice = Net.Node_id.Dla 0 and bob = Net.Node_id.Dla 1 in
  let specs =
    [ participant alice [ "a-secret" ];
      participant bob [ "b-secret" ];
      blind_ttp ttp [ "the-answer" ]
    ]
  in
  let audit events =
    Spec.View_auditor.audit ~specs (record_events events)
  in
  Alcotest.(check (list string)) "clean view"
    []
    (List.map Spec.View_auditor.reason_to_string
       (reasons
          (audit
             [ (alice, Net.Ledger.Plaintext, "a-secret");
               (bob, Net.Ledger.Share, "1234577");
               (ttp, Net.Ledger.Blinded, "99021");
               (ttp, Net.Ledger.Aggregate, "the-answer")
             ])));
  Alcotest.(check bool) "foreign secret under a blinded label" true
    (reasons (audit [ (bob, Net.Ledger.Blinded, "a-secret") ])
    = [ Spec.View_auditor.Foreign_secret ]);
  Alcotest.(check bool) "any plaintext at the TTP" true
    (reasons (audit [ (ttp, Net.Ledger.Plaintext, "harmless") ])
    = [ Spec.View_auditor.Plaintext_at_ttp ]);
  Alcotest.(check bool) "unauthorized aggregate" true
    (reasons (audit [ (ttp, Net.Ledger.Aggregate, "something-else") ])
    = [ Spec.View_auditor.Unauthorized_aggregate ]);
  Alcotest.(check bool) "plaintext outside own inputs" true
    (reasons (audit [ (alice, Net.Ledger.Plaintext, "not-mine") ])
    = [ Spec.View_auditor.Unauthorized_plaintext ]);
  Alcotest.(check bool) "bystander observation" true
    (reasons (audit [ (Net.Node_id.User 9, Net.Ledger.Metadata, "n=3") ])
    = [ Spec.View_auditor.Unknown_observer ])

let test_leaky_fixture_fails_auditor () =
  let l = bn 13 and r = bn 29 in
  let lnode = Net.Node_id.Dla 0 and rnode = Net.Node_id.Dla 1 in
  let verdict, transcript =
    Spec.Transcript.record (fun () ->
        Spec.Schedule.run
          (Spec.Schedule.uniform ~seed:0)
          (fun net ->
            Spec.Leaky_fixture.equality_via_ttp ~net ~ttp ~left:(lnode, l)
              ~right:(rnode, r)))
  in
  (* The broken protocol still computes the right answer: result
     equality alone cannot reject it... *)
  Alcotest.(check bool) "verdict matches oracle" (Spec.Oracle.equality l r)
    verdict;
  (* ...but the auditor must flag both leak shapes. *)
  let specs =
    [ participant lnode [ "13" ]; participant rnode [ "29" ]; blind_ttp ttp [] ]
  in
  let rs = reasons (Spec.View_auditor.audit ~specs transcript) in
  Alcotest.(check bool) "plaintext at the TTP flagged" true
    (List.mem Spec.View_auditor.Plaintext_at_ttp rs);
  Alcotest.(check bool) "mislabeled verbatim secret flagged" true
    (List.mem Spec.View_auditor.Foreign_secret rs)

let test_counterexample_written () =
  (* A diverging case must fail AND leave a replayable counterexample
     where CI picks it up. *)
  let path = Spec.Differential.counterexample_path () in
  if Sys.file_exists path then Sys.remove path;
  let case =
    {
      Spec.Differential.protocol = "fixture-divergence";
      input = "n/a";
      run = (fun _net -> 1);
      oracle = 2;
      equal = Int.equal;
      show = string_of_int;
      specs = (fun _ -> []);
    }
  in
  let outcome = Spec.Differential.check ~schedule:(List.hd schedules) case in
  Alcotest.(check bool) "check fails" true (Result.is_error outcome);
  Alcotest.(check bool) "counterexample file written" true
    (Sys.file_exists path);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "counterexample names the protocol" true
    (String.length line >= 18
    && String.sub line 0 18 = "fixture-divergence")

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_suite_shapes () =
  Alcotest.(check (list string))
    "suite names" [ "uniform"; "skewed"; "lossy" ]
    (List.map Spec.Schedule.name schedules);
  (* The skewed profile is deterministic in the seed and stays within
     its bounds. *)
  let profile = Net.Config.latency_profile ~seed:5 () in
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
  Alcotest.(check (float 0.0)) "deterministic" (profile a b) (profile a b);
  Alcotest.(check bool) "within bounds" true
    (profile a b >= 0.5 && profile a b <= 8.0);
  Alcotest.(check bool) "rejects bad bounds" true
    (match Net.Config.latency_profile ~seed:1 ~min_ms:3.0 ~max_ms:1.0 () with
    | (_ : Net.Node_id.t -> Net.Node_id.t -> float) -> false
    | exception Invalid_argument _ -> true)

let test_lossy_schedule_retries () =
  (* The lossy schedule must converge on a multi-round protocol and
     agree with the oracle: retries change the interleaving, never the
     answer. *)
  let p = Lazy.force Generators.sum_p in
  let parties =
    List.mapi (fun j v -> { Smc.Sum.node = Net.Node_id.Dla j; value = bn v })
      [ 5; 6; 7; 8 ]
  in
  let total =
    Spec.Schedule.run
      (Spec.Schedule.lossy ~seed:12345 ())
      (fun net ->
        Smc.Sum.run ~net ~rng:(Prng.create ~seed:9) ~p ~k:4
          ~receiver:Net.Node_id.Auditor parties)
  in
  Alcotest.(check string) "lossy run total" "26" (Bignum.to_string total)

let test_schedule_fail_fast_on_down () =
  (* A permanently-down endpoint must not loop the retry budget: the
     lossy schedule fails fast with a typed reason. *)
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
  match
    Spec.Schedule.run
      (Spec.Schedule.lossy ~seed:7 ())
      (fun net ->
        Net.Network.take_down net b;
        Net.Network.send_exn net ~src:a ~dst:b ~label:"probe" ~bytes:1)
  with
  | () -> Alcotest.fail "expected Gave_up"
  | exception Spec.Schedule.Gave_up { attempts; reason; schedule } ->
    Alcotest.(check string) "lossy schedule" "lossy" schedule;
    Alcotest.(check int) "fails on the first attempt" 1 attempts;
    Alcotest.(check bool) "reason names the permanent partition" true
      (contains reason "permanent partition" && contains reason "down")

let test_schedule_attempt_budget () =
  (* Transient losses respect the explicit attempt bound. *)
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
  match
    Spec.Schedule.run
      (Spec.Schedule.lossy ~max_attempts:3 ~seed:7 ())
      (fun _net ->
        raise (Net.Network.Partitioned { src = a; dst = b; reason = "loss" }))
  with
  | () -> Alcotest.fail "expected Gave_up"
  | exception Spec.Schedule.Gave_up { attempts; reason; _ } ->
    Alcotest.(check int) "stops at the configured budget" 3 attempts;
    Alcotest.(check bool) "reason names the budget" true
      (contains reason "budget");
    Alcotest.(check bool) "budget must be positive" true
      (match Spec.Schedule.lossy ~max_attempts:0 ~seed:1 () with
      | (_ : Spec.Schedule.t) -> false
      | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Byzantine adversary × round guard                                   *)
(* ------------------------------------------------------------------ *)

(* Fixed non-trivial inputs shared by the byzantine sweeps: the clean
   intersection is {b, c}, so a successful lie visibly changes it. *)
let byz_sets = [ [ "a"; "b"; "c" ]; [ "b"; "c"; "d" ]; [ "b"; "c"; "e" ] ]

let run_byz_intersection ?(scheme = Generators.xor_scheme) ~seed () =
  let nodes = dla 3 in
  let parties =
    List.map2
      (fun node set -> { Smc.Set_intersection.node; set })
      nodes byz_sets
  in
  let net = Net.Network.of_config (Net.Config.make ~seed ()) in
  let result =
    Smc.Set_intersection.run ~net ~scheme:(scheme (seed + 17))
      ~receiver:(List.hd nodes) parties
  in
  (result, Net.Network.stats net)

(* Everything the protocol computed, byte for byte: the plaintext
   intersection plus every fully-encrypted image. *)
let show_intersection (r : Smc.Set_intersection.result) =
  String.concat "|"
    (r.Smc.Set_intersection.intersection
    @ List.concat_map
        (fun (origin, cts) ->
          Net.Node_id.to_string origin :: List.map Bignum.to_hex cts)
        r.Smc.Set_intersection.encrypted_by_all)

let node_names nodes = List.map Net.Node_id.to_string nodes

let test_guard_honest_identity () =
  (* With no adversary, the guard must change nothing: same bytes on
     the wire, same §3 message/round counts, zero accusations — the
     verification overhead lives only on the byz.verify.* channel. *)
  List.iter
    (fun seed ->
      let clean, clean_stats = run_byz_intersection ~seed () in
      let guard = Smc.Round_guard.create () in
      let guarded, guarded_stats =
        Smc.Round_guard.with_guard guard (run_byz_intersection ~seed)
      in
      Alcotest.(check string)
        "byte-identical result"
        (show_intersection clean)
        (show_intersection guarded);
      Alcotest.(check bool) "identical network stats" true
        (clean_stats = guarded_stats);
      Alcotest.(check (list string)) "no accusations" []
        (List.map Smc.Round_guard.accusation_to_string
           (Smc.Round_guard.accusations guard));
      let msgs, bytes = Smc.Round_guard.verify_cost guard in
      Alcotest.(check bool) "verification traffic accounted separately" true
        (msgs > 0 && bytes > 0))
    Generators.chaos_seeds

let byz_behaviors =
  Net.Adversary.[ Corrupt; Equivocate; Drop; Replay; Reorder ]

(* Sweep behaviors × colluder sets × seeds under one cipher.  A lone
   liar's lie must reach the result (each hop works on the payload that
   was delivered, not on what was sent); every injected lie must be
   detected with the lying node named, and after fencing the colluders
   the re-run must converge byte-identically to the clean run — with
   the recovery transcript still passing the view auditor. *)
let byzantine_sweep ~scheme seeds =
  let run_byz_intersection = run_byz_intersection ~scheme in
  List.iter
    (fun seed ->
      let clean, _ = run_byz_intersection ~seed () in
      let expected = show_intersection clean in
      List.iter
        (fun colluders ->
          List.iter
            (fun behavior ->
              let ctx =
                Printf.sprintf "seed=%d colluders=%s behavior=%s" seed
                  (String.concat "," (node_names colluders))
                  (Net.Adversary.behavior_to_string behavior)
              in
              let adv =
                Net.Adversary.create ~seed
                  (List.map
                     (fun node ->
                       Net.Adversary.plan
                         ~labels:
                           [ "intersection:relay"; "intersection:collect" ]
                         node behavior)
                     colluders)
              in
              let guard = Smc.Round_guard.create () in
              let attacked, _ =
                Net.Adversary.with_active adv (fun () ->
                    Smc.Round_guard.with_guard guard
                      (run_byz_intersection ~seed))
              in
              (* ground truth: the lies the adversary actually told *)
              Alcotest.(check bool)
                (ctx ^ ": adversary injected")
                true
                (Net.Adversary.injections adv <> []);
              (* one liar's lie reaches the result; two can cancel out
                 (a reorder reversed twice) *)
              if List.length colluders = 1 then
                Alcotest.(check bool)
                  (ctx ^ ": the lie reaches the result")
                  true
                  (show_intersection attacked <> expected);
              Alcotest.(check (list string))
                (ctx ^ ": every lying node named, nobody else")
                (node_names (Net.Adversary.injected_nodes adv))
                (node_names (Smc.Round_guard.accused_nodes guard));
              (* quarantine the accused = re-host on honest replicas;
                 the re-run must equal the clean run byte for byte *)
              List.iter
                (Net.Adversary.quarantine adv)
                (Smc.Round_guard.accused_nodes guard);
              let recovery_guard = Smc.Round_guard.create () in
              let (recovered, _), transcript =
                Spec.Transcript.record (fun () ->
                    Net.Adversary.with_active adv (fun () ->
                        Smc.Round_guard.with_guard recovery_guard
                          (run_byz_intersection ~seed)))
              in
              Alcotest.(check string)
                (ctx ^ ": recovery converges byte-identical")
                expected
                (show_intersection recovered);
              Alcotest.(check (list string))
                (ctx ^ ": recovery run is accusation-free")
                []
                (List.map Smc.Round_guard.accusation_to_string
                   (Smc.Round_guard.accusations recovery_guard));
              (* the defenses themselves must leak nothing *)
              let specs =
                List.map2
                  (fun node set ->
                    if Net.Node_id.equal node (List.hd (dla 3)) then
                      {
                        (participant node set) with
                        allowed_outputs =
                          recovered.Smc.Set_intersection.intersection;
                      }
                    else participant node set)
                  (dla 3) byz_sets
              in
              Alcotest.(check (list string))
                (ctx ^ ": recovery transcript passes the view auditor")
                []
                (List.map Spec.View_auditor.violation_to_string
                   (Spec.View_auditor.audit ~specs transcript)))
            byz_behaviors)
        [ [ Net.Node_id.Dla 1 ]; [ Net.Node_id.Dla 1; Net.Node_id.Dla 2 ] ])
    seeds

let test_byzantine_detection_sweep () =
  byzantine_sweep ~scheme:Generators.xor_scheme Generators.chaos_seeds

(* The same sweep under a modexp cipher: a tampered ring hop delivers
   values the next node raises to its Pohlig–Hellman key, so detection
   and recovery are checked on that path too (one seed). *)
let test_byzantine_detection_sweep_ph () =
  byzantine_sweep ~scheme:Generators.fresh_scheme [ 0 ]

let test_byzantine_sum_voting () =
  (* Σₛ share forgery: the over-provisioned reconstruction identifies
     the forged share by consistency voting, names the holder, and
     still returns the correct sum (the vote outvotes the lie). *)
  let p = Lazy.force Generators.sum_p in
  let values = [ 11; 22; 33; 44 ] in
  let parties =
    List.mapi
      (fun j v -> { Smc.Sum.node = Net.Node_id.Dla j; value = bn v })
      values
  in
  let oracle = Spec.Oracle.sum ~p (List.map bn values) in
  List.iter
    (fun seed ->
      (* forge on the verification channel only: digests never see it,
         so the accusation can only come from the consistency vote *)
      let liar = Net.Node_id.Dla 3 in
      let adv =
        Net.Adversary.create ~seed
          [
            Net.Adversary.plan ~labels:[ "sum:aggregate-verify" ] liar
              Net.Adversary.Forge_share;
          ]
      in
      let guard = Smc.Round_guard.create () in
      let total =
        Net.Adversary.with_active adv (fun () ->
            Smc.Round_guard.with_guard guard (fun () ->
                let net = Net.Network.of_config (Net.Config.make ~seed ()) in
                Smc.Sum.run ~net ~rng:(Prng.create ~seed:(seed + 3)) ~p ~k:2
                  ~receiver:Net.Node_id.Auditor parties))
      in
      Alcotest.(check string) "sum survives the forgery"
        (Bignum.to_string oracle) (Bignum.to_string total);
      Alcotest.(check bool) "forgery actually happened" true
        (Net.Adversary.injections adv <> []);
      Alcotest.(check (list string)) "voting names the share holder"
        (node_names [ liar ])
        (node_names (Smc.Round_guard.accused_nodes guard));
      Alcotest.(check bool) "reason is share forgery" true
        (List.for_all
           (fun (a : Smc.Round_guard.accusation) ->
             a.reason = Smc.Round_guard.Forged_share)
           (Smc.Round_guard.accusations guard)))
    Generators.chaos_seeds;
  (* forging a collected aggregate share is caught twice — by digest
     cross-check and by the vote — and the sum is still correct *)
  let liar = Net.Node_id.Dla 1 in
  let adv =
    Net.Adversary.create ~seed:5
      [
        Net.Adversary.plan ~labels:[ "sum:aggregate" ] liar
          Net.Adversary.Forge_share;
      ]
  in
  let guard = Smc.Round_guard.create () in
  let total =
    Net.Adversary.with_active adv (fun () ->
        Smc.Round_guard.with_guard guard (fun () ->
            let net = Net.Network.of_config (Net.Config.make ~seed:5 ()) in
            Smc.Sum.run ~net ~rng:(Prng.create ~seed:8) ~p ~k:2
              ~receiver:Net.Node_id.Auditor parties))
  in
  Alcotest.(check string) "voting corrects the forged aggregate"
    (Bignum.to_string oracle) (Bignum.to_string total);
  Alcotest.(check (list string)) "only the liar is accused"
    (node_names [ liar ])
    (node_names (Smc.Round_guard.accused_nodes guard))

let test_verifier_leak_flagged () =
  (* The guard's own channel is audited: anything on a "byz:" tag that
     is not a Metadata commitment digest is a Verifier_leak. *)
  let alice = Net.Node_id.Dla 0 in
  let specs = [ participant alice [ "a-secret" ] ] in
  let record ~sensitivity ~tag value =
    let _, transcript =
      Spec.Transcript.record (fun () ->
          let net = Net.Network.of_config (Net.Config.make ()) in
          Smc.Proto_util.observe net ~node:alice ~sensitivity ~tag
            (Net.Ledger.Text value))
    in
    reasons (Spec.View_auditor.audit ~specs transcript)
  in
  let digest = Smc.Round_guard.digest [ bn 42 ] in
  Alcotest.(check bool) "well-formed commitment passes" true
    (record ~sensitivity:Net.Ledger.Metadata ~tag:"byz:commit:x" digest = []);
  Alcotest.(check bool) "non-digest payload flagged" true
    (record ~sensitivity:Net.Ledger.Metadata ~tag:"byz:commit:x" "a-secret"
    = [ Spec.View_auditor.Verifier_leak ]);
  Alcotest.(check bool) "wrong sensitivity flagged" true
    (record ~sensitivity:Net.Ledger.Plaintext ~tag:"byz:commit:x" digest
    = [ Spec.View_auditor.Verifier_leak ])

let test_leaky_fixture_fails_under_guard () =
  (* Adding the defense layer must not whitewash a genuinely leaky
     protocol: the fixture still fails the auditor inside a guard. *)
  let l = bn 13 and r = bn 29 in
  let lnode = Net.Node_id.Dla 0 and rnode = Net.Node_id.Dla 1 in
  let guard = Smc.Round_guard.create () in
  let _, transcript =
    Spec.Transcript.record (fun () ->
        Smc.Round_guard.with_guard guard (fun () ->
            Spec.Schedule.run (Spec.Schedule.uniform ~seed:0) (fun net ->
                Spec.Leaky_fixture.equality_via_ttp ~net ~ttp ~left:(lnode, l)
                  ~right:(rnode, r))))
  in
  let specs =
    [ participant lnode [ "13" ]; participant rnode [ "29" ]; blind_ttp ttp [] ]
  in
  let rs = reasons (Spec.View_auditor.audit ~specs transcript) in
  Alcotest.(check bool) "leaky fixture still rejected" true
    (List.mem Spec.View_auditor.Plaintext_at_ttp rs
    && List.mem Spec.View_auditor.Foreign_secret rs)

(* ------------------------------------------------------------------ *)
(* Planner determinism                                                 *)
(* ------------------------------------------------------------------ *)

(* Planner.homes must depend on the *set* of clause homes, never on the
   order the normalizer happened to emit the clauses in: multi-query
   plans reorder shared clauses freely, so two logically equal plans
   must report byte-equal home lists. *)
let prop_homes_clause_order_invariant =
  QCheck.Test.make ~name:"Planner.homes invariant under clause order"
    ~count:200
    (QCheck.make Generators.paper_query_gen ~print:Dla.Query.to_string)
    (fun query ->
      let open Dla in
      match
        Planner.plan Fragmentation.paper_partition (Query.normalize query)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok plan ->
        let show plan =
          String.concat ","
            (List.map Net.Node_id.to_string (Planner.homes plan))
        in
        let reversed =
          { plan with Planner.clauses = List.rev plan.Planner.clauses }
        in
        let rotated =
          match plan.Planner.clauses with
          | [] | [ _ ] -> plan
          | first :: rest ->
            { plan with Planner.clauses = rest @ [ first ] }
        in
        show plan = show reversed && show plan = show rotated)

let () =
  Alcotest.run "spec"
    [ ( "oracle",
        [ Alcotest.test_case "figure-4 example" `Quick test_oracle_figure4;
          Alcotest.test_case "set edges" `Quick test_oracle_edge_sets;
          Alcotest.test_case "ranking ties" `Quick test_oracle_ranking_ties;
          Alcotest.test_case "majority tie" `Quick test_oracle_majority_tie;
          Alcotest.test_case "weighted-sum defaults" `Quick
            test_oracle_weighted_sum_defaults
        ] );
      ( "transcript",
        [ Alcotest.test_case "captures per-node views" `Quick
            test_transcript_captures_views
        ] );
      ( "view-auditor",
        [ Alcotest.test_case "rule matrix" `Quick test_auditor_rules;
          Alcotest.test_case "leaky fixture rejected" `Quick
            test_leaky_fixture_fails_auditor;
          Alcotest.test_case "counterexample artifact" `Quick
            test_counterexample_written;
          Alcotest.test_case "paper audits simulatable" `Quick
            test_paper_audits_simulatable;
          Alcotest.test_case "leaky audit rejected" `Quick
            test_leaky_audit_rejected
        ] );
      ( "schedules",
        [ Alcotest.test_case "suite shapes" `Quick test_schedule_suite_shapes;
          Alcotest.test_case "lossy retries converge" `Quick
            test_lossy_schedule_retries;
          Alcotest.test_case "fail fast on permanent partition" `Quick
            test_schedule_fail_fast_on_down;
          Alcotest.test_case "typed attempt budget" `Quick
            test_schedule_attempt_budget
        ] );
      ( "byzantine",
        [ Alcotest.test_case "guard is identity on honest path" `Quick
            test_guard_honest_identity;
          Alcotest.test_case "detection sweep" `Slow
            test_byzantine_detection_sweep;
          Alcotest.test_case "detection sweep (pohlig-hellman)" `Quick
            test_byzantine_detection_sweep_ph;
          Alcotest.test_case "sum share-forgery voting" `Quick
            test_byzantine_sum_voting;
          Alcotest.test_case "verifier leak flagged" `Quick
            test_verifier_leak_flagged;
          Alcotest.test_case "leaky fixture still rejected" `Quick
            test_leaky_fixture_fails_under_guard
        ] );
      ( "planner",
        [ QCheck_alcotest.to_alcotest prop_homes_clause_order_invariant ] );
      ("differential", differential_tests)
    ]
