(* Confidential auditing of business transactions (paper §2: "auditing
   of transactions from multiple independent sources … non-repudiation
   of transactions").

   An auditor verifies, over the e-commerce stream, (a) the total traded
   volume via a secure sum, and (b) pairing of orders and payments per
   transaction id — learning only aggregates, never raw rows.

     dune exec examples/ecommerce_audit.exe *)

open Numtheory
open Dla

let () =
  let config = { Workload.Ecommerce.default_config with transactions = 15 } in
  let cluster = Cluster.create ~seed:3 Fragmentation.paper_partition in
  let glsns, truth = Workload.Ecommerce.populate cluster config in
  Printf.printf "logged %d events for %d transactions from %d users\n"
    (List.length glsns) config.Workload.Ecommerce.transactions
    config.Workload.Ecommerce.users;

  (* (a) Total volume by secure sum.  The amount column (C2) is homed at
     P1; each DLA node contributes a stripe total, and the auditor
     reconstructs only the grand total. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  let amounts =
    List.rev
      (Storage.fold_column store (Attribute.undefined 2)
         (fun acc _ v -> match v with Value.Money c -> c :: acc | _ -> acc)
         [])
  in
  let nodes = Cluster.nodes cluster in
  let stripes = Array.make (List.length nodes) 0 in
  List.iteri
    (fun i cents -> stripes.(i mod Array.length stripes) <- stripes.(i mod Array.length stripes) + cents)
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
  Printf.printf "\nsecure-sum volume: %s cents (ground truth %d) — %s\n"
    (Bignum.to_string total)
    truth.Workload.Ecommerce.total_volume_cents
    (if Bignum.to_int total = truth.Workload.Ecommerce.total_volume_cents then
       "match"
     else "MISMATCH");

  (* (b) Non-repudiation: every transaction id must have both an order
     and a payment event.  Two confidential queries per tid; the auditor
     sees only the matching glsn sets. *)
  let audit criteria =
    match
      Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
        (Auditor_engine.Text criteria)
    with
    | Ok a -> List.length a.Auditor_engine.matching
    | Error e -> failwith (Audit_error.to_string e)
  in
  let incomplete =
    List.filter
      (fun tid ->
        let orders = audit (Printf.sprintf {|tid = "%s" && C3 = "order"|} tid) in
        let payments =
          audit (Printf.sprintf {|tid = "%s" && C3 = "payment"|} tid)
        in
        orders <> 1 || payments <> 1)
      truth.Workload.Ecommerce.transaction_ids
  in
  Printf.printf "order/payment pairing: %d of %d transactions complete\n"
    (List.length truth.Workload.Ecommerce.transaction_ids - List.length incomplete)
    (List.length truth.Workload.Ecommerce.transaction_ids);

  (* (c) Integrity sweep: every stored fragment still matches the
     digests the users deposited at logging time (§4.1). *)
  let violations = Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0) in
  Printf.printf "integrity sweep over %d records: %d violation(s)\n"
    (Cluster.record_count cluster) (List.length violations);

  (* Privacy check: the auditor learned totals and counts, but never an
     individual amount. *)
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  let leaked =
    List.exists
      (fun cents ->
        Net.Ledger.saw_plaintext ledger ~node:Net.Node_id.Auditor
          (string_of_int cents))
      amounts
  in
  Printf.printf "auditor saw any individual amount in plaintext? %b\n" leaked;

  (* (d) Maximum-confidentiality variant: store a fee column as Shamir
     shares — then NO node ever sees a fee, yet query-selected totals
     still come out exactly. *)
  let fees = Shared_column.create cluster ~attr:(Attribute.undefined 9) ~k:3 in
  List.iter
    (fun glsn -> Shared_column.record fees ~glsn (Value.Money 25))
    glsns;
  (match
     Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
       (Auditor_engine.Text {|C3 = "payment"|})
   with
  | Error e -> failwith (Audit_error.to_string e)
  | Ok audit ->
    (match
       Shared_column.secret_total fees ~over:audit.Auditor_engine.matching
         ~auditor:Net.Node_id.Auditor ()
     with
    | Value.Money cents ->
      Printf.printf
        "\nshared-column fee total over payment events: %d.%02d (no node \
         ever saw a fee: %b)\n"
        (cents / 100) (cents mod 100)
        (List.for_all
           (fun node ->
             not (Net.Ledger.saw_plaintext ledger ~node "25"))
           (Cluster.nodes cluster))
    | v -> Printf.printf "unexpected kind %s\n" (Value.to_string v)))
