type item =
  | Audit of Auditor_engine.audit * float  (* with its mean C_store *)
  | Count of string * int
  | Rule_findings of string * (Rules.rule * string) list
  | Integrity_sweep of (Glsn.t * Integrity.violation) list
  | Certificate of Certification.certificate

type t = {
  title : string;
  cluster : Cluster.t;
  mutable items : item list;  (* newest first *)
}

let create ~title cluster = { title; cluster; items = [] }

let push t item = t.items <- item :: t.items

let add_audit t audit =
  push t (Audit (audit, Auditor_engine.mean_c_store t.cluster audit))

let add_count t ~criteria count = push t (Count (criteria, count))
let add_rule_findings t ~tid findings = push t (Rule_findings (tid, findings))
let add_integrity_sweep t violations = push t (Integrity_sweep violations)
let add_certificate t certificate = push t (Certificate certificate)

let render_item buf = function
  | Audit (audit, mean_c_store) ->
    Buffer.add_string buf
      (Printf.sprintf "AUDIT   %s\n        %d record(s): %s\n"
         (Query.to_string audit.Auditor_engine.criteria)
         (List.length audit.Auditor_engine.matching)
         (String.concat ", "
            (List.map Glsn.to_string audit.Auditor_engine.matching)));
    Buffer.add_string buf
      (Printf.sprintf
         "        C_auditing %.3f | mean C_store %.3f | mean C_query %.3f\n"
         audit.Auditor_engine.c_auditing mean_c_store
         (audit.Auditor_engine.c_auditing *. mean_c_store));
    Buffer.add_string buf
      (Printf.sprintf "        cost: %d msgs, %d bytes, %d rounds\n"
         audit.Auditor_engine.messages audit.Auditor_engine.bytes
         audit.Auditor_engine.rounds)
  | Count (criteria, count) ->
    Buffer.add_string buf
      (Printf.sprintf "COUNT   %s\n        %d record(s) (glsn set withheld)\n"
         criteria count)
  | Rule_findings (tid, []) ->
    Buffer.add_string buf
      (Printf.sprintf "RULES   transaction %s: compliant\n" tid)
  | Rule_findings (tid, findings) ->
    Buffer.add_string buf
      (Printf.sprintf "RULES   transaction %s: %d violation(s)\n" tid
         (List.length findings));
    List.iter
      (fun (rule, detail) ->
        Buffer.add_string buf
          (Printf.sprintf "        - %s: %s\n" (Rules.rule_to_string rule)
             detail))
      findings
  | Integrity_sweep [] ->
    Buffer.add_string buf "INTEG   full sweep: all records intact\n"
  | Integrity_sweep violations ->
    Buffer.add_string buf
      (Printf.sprintf "INTEG   full sweep: %d violation(s)\n"
         (List.length violations));
    List.iter
      (fun (glsn, v) ->
        Buffer.add_string buf
          (Printf.sprintf "        - %s: %s\n" (Glsn.to_string glsn)
             (Integrity.violation_to_string v)))
      violations
  | Certificate certificate ->
    Buffer.add_string buf
      (Printf.sprintf
         "CERT    cluster-signed (%d approvals / %d rejections)\n        %s\n"
         certificate.Certification.approvals
         certificate.Certification.rejections
         certificate.Certification.statement)

(* What the auditor actually observed, from the live ledger — the
   report's own accountability section. *)
let observation_digest t =
  let ledger = Net.Network.ledger (Cluster.net t.cluster) in
  let observations =
    Net.Ledger.observations ledger ~node:Net.Node_id.Auditor
  in
  let count sensitivity =
    List.length (List.filter (fun (s, _, _) -> s = sensitivity) observations)
  in
  Printf.sprintf
    "auditor observations: %d aggregate, %d metadata, %d share, %d blinded, \
     %d plaintext"
    (count Net.Ledger.Aggregate) (count Net.Ledger.Metadata)
    (count Net.Ledger.Share) (count Net.Ledger.Blinded)
    (count Net.Ledger.Plaintext)

let render t =
  let buf = Buffer.create 1024 in
  let bar = String.make 68 '=' in
  Buffer.add_string buf (bar ^ "\n");
  Buffer.add_string buf (Printf.sprintf "AUDIT REPORT: %s\n" t.title);
  Buffer.add_string buf
    (Printf.sprintf "cluster: %d DLA node(s), %d record(s); layout %s\n"
       (List.length (Cluster.nodes t.cluster))
       (Cluster.record_count t.cluster)
       (Fragmentation.to_spec (Cluster.fragmentation t.cluster)));
  Buffer.add_string buf (bar ^ "\n");
  List.iter (render_item buf) (List.rev t.items);
  Buffer.add_string buf (bar ^ "\n");
  Buffer.add_string buf (observation_digest t ^ "\n");
  Buffer.add_string buf (bar ^ "\n");
  Buffer.contents buf
