(* Quickstart: stand up a DLA cluster, log a few events, and run a
   confidential audit query.

     dune exec examples/quickstart.exe *)

open Dla

let () =
  (* 1. A 4-node DLA cluster with the paper's attribute partition:
     P0:{time,C4}  P1:{id,eid,C2,C5}  P2:{tid,C3,C6}  P3:{protocl,ip,C1}. *)
  let cluster = Cluster.create ~seed:1 Fragmentation.paper_partition in

  (* 2. The application node obtains a write ticket from the cluster. *)
  let user = Net.Node_id.User 1 in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T1" ~principal:user
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
  in

  (* 3. Log three events.  Each record is fragmented: every DLA node
     stores only the columns it supports, plus an integrity digest. *)
  let d = Attribute.defined and u = Attribute.undefined in
  let log ~time ~id ~amount ~memo =
    let attributes =
      [ (d "time", Value.Time time); (d "id", Value.Str id);
        (d "protocl", Value.Str "TCP"); (d "tid", Value.Str "T0000001");
        (u 1, Value.Int 1); (u 2, Value.money_of_float amount);
        (u 3, Value.Str memo)
      ]
    in
    match
      Cluster.to_result (Cluster.submit cluster ~ticket ~origin:user ~attributes)
    with
    | Ok glsn -> Printf.printf "logged %s (%s, %.2f)\n" (Glsn.to_string glsn) id amount
    | Error e -> failwith e
  in
  log ~time:1000 ~id:"U1" ~amount:23.45 ~memo:"order";
  log ~time:1060 ~id:"U1" ~amount:345.11 ~memo:"payment";
  log ~time:1120 ~id:"U2" ~amount:45.02 ~memo:"order";

  (* 4. Audit confidentially: the query is decomposed over the cluster;
     the auditor receives only the matching glsn's. *)
  let criteria = {|id = "U1" && C2 > 100.00|} in
  (match
     Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
       (Auditor_engine.Text criteria)
   with
  | Error e -> failwith (Audit_error.to_string e)
  | Ok audit ->
    Printf.printf "\naudit %s\n%s\n" criteria
      (Format.asprintf "%a" (Auditor_engine.pp_audit cluster) audit));

  (* 5. The observation ledger proves the confidentiality claim: the
     auditor never saw a raw attribute value. *)
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  Printf.printf "\nauditor saw amount 345.11 in plaintext? %b\n"
    (Net.Ledger.saw_plaintext ledger ~node:Net.Node_id.Auditor "C2=345.11");
  Printf.printf "P0 (time node) saw any amount? %b\n"
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 0) "C2=345.11");
  Printf.printf "P1 (amount node) saw its own column? %b\n"
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 1) "C2=345.11")
