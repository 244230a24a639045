(* Tests for the workload generators and the paper's worked example
   (Tables 1–6), plus end-to-end scenarios: aggregate auditing over the
   e-commerce stream and low-and-slow scan detection over the intrusion
   stream. *)

open Numtheory
open Dla

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Time utilities                                                      *)
(* ------------------------------------------------------------------ *)

let test_time_known_epochs () =
  Alcotest.(check int) "epoch origin" 0
    (Workload.Time_util.epoch_of_civil ~year:1970 ~month:1 ~day:1 ~hour:0
       ~minute:0 ~second:0);
  Alcotest.(check int) "y2k" 946684800
    (Workload.Time_util.epoch_of_civil ~year:2000 ~month:1 ~day:1 ~hour:0
       ~minute:0 ~second:0);
  (* Leap-year day. *)
  Alcotest.(check int) "2004-02-29" 1078012800
    (Workload.Time_util.epoch_of_civil ~year:2004 ~month:2 ~day:29 ~hour:0
       ~minute:0 ~second:0)

let test_time_paper_format () =
  let epoch = Workload.Time_util.parse_paper "20:18:35/05/12/2002" in
  Alcotest.(check string) "roundtrip" "20:18:35/05/12/2002"
    (Workload.Time_util.format_paper epoch);
  (* 2-digit years mean 20yy, as in Table 1's truncated cells. *)
  Alcotest.(check int) "2-digit year" epoch
    (Workload.Time_util.parse_paper "20:18:35/05/12/02")

let prop_time_roundtrip =
  QCheck.Test.make ~name:"civil <-> epoch roundtrip" ~count:500
    (QCheck.int_range (-2_000_000_000) 2_000_000_000)
    (fun epoch ->
      let y, m, d, h, mi, s = Workload.Time_util.civil_of_epoch epoch in
      Workload.Time_util.epoch_of_civil ~year:y ~month:m ~day:d ~hour:h
        ~minute:mi ~second:s
      = epoch)

(* ------------------------------------------------------------------ *)
(* Paper example (Tables 1–6)                                          *)
(* ------------------------------------------------------------------ *)

let test_paper_example_builds () =
  let cluster, glsns = Workload.Paper_example.build () in
  Alcotest.(check int) "five rows" 5 (List.length glsns);
  Alcotest.(check int) "five records" 5 (Cluster.record_count cluster);
  (* First glsn matches Table 1's starting value. *)
  Alcotest.(check string) "first glsn" "139aef78"
    (Glsn.to_string (List.hd glsns))

let test_paper_example_global_table () =
  let cluster, glsns = Workload.Paper_example.build () in
  let table = Workload.Paper_example.render_global_table cluster glsns in
  List.iter
    (fun cell ->
      Alcotest.(check bool) cell true (string_contains table cell))
    [ "139aef78"; "U1"; "U2"; "U3"; "UDP"; "TCP"; "T1100265"; "T1100267";
      "23.45"; "345.11"; "678.75"; "signature"; "salary"; "account";
      "20:18:35/05/12/2002" ]

let test_paper_example_fragments () =
  let cluster, _ = Workload.Paper_example.build () in
  let tables = Workload.Paper_example.render_fragment_tables cluster in
  (* P0's table holds times but no amounts; P1 holds ids and amounts. *)
  Alcotest.(check bool) "P0 header" true
    (string_contains tables "STORED IN P0");
  Alcotest.(check bool) "P1 amounts" true (string_contains tables "345.11");
  (* Each node's section must not contain foreign columns; crude check:
     P0's section (between P0 and P1 headers) has no amount. *)
  let p0_section =
    let start = ref 0 in
    let find s from =
      let nl = String.length s in
      let rec go i =
        if i + nl > String.length tables then String.length tables
        else if String.sub tables i nl = s then i
        else go (i + 1)
      in
      go from
    in
    start := find "STORED IN P0" 0;
    let stop = find "STORED IN P1" !start in
    String.sub tables !start (stop - !start)
  in
  Alcotest.(check bool) "P0 has times" true
    (string_contains p0_section "20:18:35");
  Alcotest.(check bool) "P0 lacks amounts" false
    (string_contains p0_section "345.11");
  Alcotest.(check bool) "P0 lacks ids" false (string_contains p0_section "U1")

let test_paper_example_acl_table () =
  let cluster, _ = Workload.Paper_example.build () in
  let table = Workload.Paper_example.render_acl_table cluster in
  List.iter
    (fun cell ->
      Alcotest.(check bool) cell true (string_contains table cell))
    [ "T1"; "T2"; "T3"; "W/R"; "139aef78" ]

let test_paper_example_ticket_rows () =
  (* Table 6: T1 -> rows 0,2; T2 -> rows 1,3; T3 -> row 4. *)
  let cluster, glsns = Workload.Paper_example.build () in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 0) in
  let acl = Storage.acl store in
  let check ticket indexes =
    let expected =
      List.map (fun i -> Glsn.to_string (List.nth glsns i)) indexes
    in
    let actual =
      List.map Glsn.to_string
        (Glsn.Set.elements (Access_control.glsns_of acl ~ticket_id:ticket))
    in
    Alcotest.(check (list string)) ticket expected actual
  in
  check "T1" [ 0; 2 ];
  check "T2" [ 1; 3 ];
  check "T3" [ 4 ]

(* ------------------------------------------------------------------ *)
(* E-commerce workload                                                 *)
(* ------------------------------------------------------------------ *)

let test_ecommerce_populate () =
  let config = Workload.Ecommerce.default_config in
  let cluster = Cluster.create ~seed:3 Fragmentation.paper_partition in
  let glsns, truth = Workload.Ecommerce.populate cluster config in
  Alcotest.(check int) "2 events per transaction"
    (2 * config.Workload.Ecommerce.transactions)
    (List.length glsns);
  Alcotest.(check int) "records stored" (List.length glsns)
    (Cluster.record_count cluster);
  Alcotest.(check bool) "volume positive" true
    (truth.Workload.Ecommerce.total_volume_cents > 0);
  Alcotest.(check int) "tids" config.Workload.Ecommerce.transactions
    (List.length truth.Workload.Ecommerce.transaction_ids)

let test_ecommerce_deterministic () =
  let config = Workload.Ecommerce.default_config in
  let s1 = Workload.Ecommerce.events config in
  let s2 = Workload.Ecommerce.events config in
  Alcotest.(check bool) "same stream" true (s1 = s2);
  let other = Workload.Ecommerce.events { config with seed = 99 } in
  Alcotest.(check bool) "different seed differs" false (s1 = other)

let test_ecommerce_secure_volume_audit () =
  (* End-to-end: per-node amount totals, aggregated by secure sum,
     reproduce the ground-truth volume without the auditor seeing any
     individual amount. *)
  let config = { Workload.Ecommerce.default_config with transactions = 10 } in
  let cluster = Cluster.create ~seed:4 Fragmentation.paper_partition in
  let _, truth = Workload.Ecommerce.populate cluster config in
  (* C2 (amounts) lives at P1; its column total is the whole volume.  To
     exercise the multi-party path we split the column across the 4 DLA
     nodes by glsn stripe: each node sums a stripe of the (blinded)
     column -- here we model each node contributing the amounts of the
     records it is *responsible* for in the stripe. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  let amounts =
    List.rev
      (Storage.fold_column store (Attribute.undefined 2)
         (fun acc _ v ->
           (match v with Value.Money cents -> cents | _ -> 0) :: acc)
         [])
  in
  let nodes = Cluster.nodes cluster in
  let stripes = Array.make (List.length nodes) 0 in
  List.iteri
    (fun i cents ->
      let j = i mod Array.length stripes in
      stripes.(j) <- stripes.(j) + cents)
    amounts;
  let parties =
    List.mapi
      (fun i node -> { Smc.Sum.node; value = Bignum.of_int stripes.(i) })
      nodes
  in
  let p = Bignum.of_string "2305843009213693951" in
  let total =
    Smc.Sum.run ~net:(Cluster.net cluster) ~rng:(Cluster.rng cluster) ~p ~k:3
      ~receiver:Net.Node_id.Auditor parties
  in
  Alcotest.(check int) "volume via secure sum"
    truth.Workload.Ecommerce.total_volume_cents (Bignum.to_int total);
  (* The auditor saw the aggregate, not the stripes. *)
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  Alcotest.(check bool) "aggregate observed" true
    (Net.Ledger.saw ledger ~node:Net.Node_id.Auditor
       ~sensitivity:Net.Ledger.Aggregate
       (string_of_int truth.Workload.Ecommerce.total_volume_cents))

(* ------------------------------------------------------------------ *)
(* Intrusion workload                                                  *)
(* ------------------------------------------------------------------ *)

let test_intrusion_low_and_slow () =
  let config = Workload.Intrusion.default_config in
  let truth_source = "evil7" in
  let per_host = Workload.Intrusion.per_host_counts config ~source:truth_source in
  (* On every single host the scan stays under the local threshold... *)
  List.iter
    (fun (host, count) ->
      Alcotest.(check bool)
        (Printf.sprintf "host %d under threshold" host)
        true
        (count < config.Workload.Intrusion.local_alert_threshold))
    per_host;
  (* ...but the aggregate crosses it. *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 per_host in
  Alcotest.(check bool) "aggregate over threshold" true
    (total >= config.Workload.Intrusion.local_alert_threshold)

let test_intrusion_detection_via_audit () =
  let config = Workload.Intrusion.default_config in
  let cluster = Cluster.create ~seed:5 Fragmentation.paper_partition in
  let _, truth = Workload.Intrusion.populate cluster config in
  (* Audit: how many events per source id?  The per-source counts are an
     aggregate the auditor is allowed to learn (glsn sets). *)
  let count_for source =
    match
      Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
        (Auditor_engine.Text (Printf.sprintf {|id = "%s"|} source))
    with
    | Ok audit -> List.length audit.Auditor_engine.matching
    | Error e -> Alcotest.failf "audit: %s" (Audit_error.to_string e)
  in
  let attacker_count = count_for truth.Workload.Intrusion.attacker in
  Alcotest.(check int) "attacker event count"
    truth.Workload.Intrusion.attacker_total_events attacker_count;
  (* The attacker stands out against every background source. *)
  List.iter
    (fun source ->
      Alcotest.(check bool)
        (Printf.sprintf "louder than %s" source)
        true
        (attacker_count > 0
         && attacker_count >= config.Workload.Intrusion.probes_per_host))
    truth.Workload.Intrusion.background_sources;
  Alcotest.(check bool) "crosses global threshold" true
    (attacker_count >= config.Workload.Intrusion.local_alert_threshold)

let test_intrusion_privacy () =
  (* Detection happened without the auditor reading any connection row. *)
  let config = Workload.Intrusion.default_config in
  let cluster = Cluster.create ~seed:6 Fragmentation.paper_partition in
  let _ = Workload.Intrusion.populate cluster config in
  (match
     Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
       (Auditor_engine.Text {|id = "evil7"|})
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "audit: %s" (Audit_error.to_string e));
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  Alcotest.(check bool) "auditor never saw a target ip" false
    (Net.Ledger.saw_plaintext ledger ~node:Net.Node_id.Auditor "ip=10.0.0.0");
  Alcotest.(check bool) "auditor never saw a port" false
    (Net.Ledger.saw_plaintext ledger ~node:Net.Node_id.Auditor "C1=22")


(* ------------------------------------------------------------------ *)
(* Library workload (ref [7] scenario)                                 *)
(* ------------------------------------------------------------------ *)

let test_library_populate_and_counts () =
  let config = Workload.Library.default_config in
  let cluster = Cluster.create ~seed:7 Fragmentation.paper_partition in
  let glsns, truth = Workload.Library.populate cluster config in
  Alcotest.(check int) "event count" config.Workload.Library.events
    (List.length glsns);
  Alcotest.(check int) "services partition the events"
    config.Workload.Library.events
    (truth.Workload.Library.checkouts + truth.Workload.Library.searches
    + truth.Workload.Library.renewals);
  Alcotest.(check int) "branches partition the events"
    config.Workload.Library.events
    (List.fold_left (fun acc (_, c) -> acc + c)
       0 truth.Workload.Library.per_branch);
  (* Audited counts equal ground truth. *)
  (match
     Auditor_engine.run cluster ~delivery:Executor.Count_only
       ~auditor:Net.Node_id.Auditor
       (Auditor_engine.Text {|protocl = "checkout"|})
   with
  | Ok audit ->
    Alcotest.(check int) "checkout count" truth.Workload.Library.checkouts
      audit.Auditor_engine.count
  | Error e -> Alcotest.fail (Audit_error.to_string e));
  Alcotest.(check bool) "heaviest patron known to truth" true
    (truth.Workload.Library.heaviest_patron_events > 0)

let test_library_deterministic () =
  let config = Workload.Library.default_config in
  Alcotest.(check bool) "same stream" true
    (Workload.Library.events config = Workload.Library.events config);
  Alcotest.(check bool) "different seed differs" false
    (Workload.Library.events config
    = Workload.Library.events { config with Workload.Library.seed = 99 })

(* ------------------------------------------------------------------ *)
(* Proto_util                                                          *)
(* ------------------------------------------------------------------ *)

let test_ring_next () =
  let ring = Net.Node_id.dla_ring 3 in
  Alcotest.(check string) "middle" "P2"
    (Net.Node_id.to_string (Smc.Proto_util.ring_next ring (Net.Node_id.Dla 1)));
  Alcotest.(check string) "wraps" "P0"
    (Net.Node_id.to_string (Smc.Proto_util.ring_next ring (Net.Node_id.Dla 2)));
  Alcotest.check_raises "not in ring"
    (Invalid_argument "Proto_util.ring_next: node not in ring") (fun () ->
      ignore (Smc.Proto_util.ring_next ring (Net.Node_id.Dla 9)))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    (QCheck.pair (QCheck.list QCheck.small_int) (QCheck.int_range 0 1000))
    (fun (items, seed) ->
      let shuffled =
        Smc.Proto_util.shuffle (Prng.create ~seed) items
      in
      List.sort compare shuffled = List.sort compare items)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [ ( "time",
        Alcotest.test_case "known epochs" `Quick test_time_known_epochs
        :: Alcotest.test_case "paper format" `Quick test_time_paper_format
        :: qt [ prop_time_roundtrip ] );
      ( "paper-example",
        [ Alcotest.test_case "builds" `Quick test_paper_example_builds;
          Alcotest.test_case "table 1" `Quick test_paper_example_global_table;
          Alcotest.test_case "tables 2-5" `Quick test_paper_example_fragments;
          Alcotest.test_case "table 6" `Quick test_paper_example_acl_table;
          Alcotest.test_case "ticket rows" `Quick test_paper_example_ticket_rows
        ] );
      ( "ecommerce",
        [ Alcotest.test_case "populate" `Quick test_ecommerce_populate;
          Alcotest.test_case "deterministic" `Quick test_ecommerce_deterministic;
          Alcotest.test_case "secure volume audit" `Quick
            test_ecommerce_secure_volume_audit
        ] );
      ( "library",
        [ Alcotest.test_case "populate+counts" `Quick test_library_populate_and_counts;
          Alcotest.test_case "deterministic" `Quick test_library_deterministic
        ] );
      ( "proto-util",
        Alcotest.test_case "ring next" `Quick test_ring_next
        :: qt [ prop_shuffle_is_permutation ] );
      ( "intrusion",
        [ Alcotest.test_case "low and slow shape" `Quick test_intrusion_low_and_slow;
          Alcotest.test_case "detection via audit" `Quick
            test_intrusion_detection_via_audit;
          Alcotest.test_case "privacy" `Quick test_intrusion_privacy
        ] );
    ]
