type t = {
  params : Crypto.Threshold_rsa.params;
  shares : (Net.Node_id.t * Crypto.Threshold_rsa.share) list;
}

type certificate = {
  statement : string;
  signature : Numtheory.Bignum.t;
  approvals : int;
  rejections : int;
}

let setup cluster ~k () =
  let nodes = Cluster.nodes cluster in
  let params, shares =
    Crypto.Threshold_rsa.deal (Cluster.rng cluster) ~bits:128 ~k
      ~parties:(List.length nodes)
  in
  { params; shares = List.combine nodes shares }

let params t = t.params

let statement_of_audit (audit : Auditor_engine.audit) =
  Printf.sprintf "audit{%s}->[%s]"
    (Query.to_string audit.Auditor_engine.criteria)
    (String.concat ","
       (List.map Glsn.to_string audit.Auditor_engine.matching))

let certify_statement t cluster ?(dissenting = []) statement =
  let net = Cluster.net cluster in
  let nodes = Cluster.nodes cluster in
  let is_dissenting node =
    List.exists (Net.Node_id.equal node) dissenting
  in
  (* Phase 1: majority agreement on the verdict. *)
  let votes =
    List.map
      (fun node ->
        ( node,
          if is_dissenting node then Smc.Majority.Reject
          else Smc.Majority.Approve ))
      nodes
  in
  let outcome =
    Smc.Majority.run ~net ~rng:(Cluster.rng cluster) ~votes ()
  in
  match outcome.Smc.Majority.verdict with
  | Some Smc.Majority.Reject | None ->
    Error
      (Printf.sprintf "majority did not approve (%d/%d)"
         outcome.Smc.Majority.approvals
         (List.length nodes))
  | Some Smc.Majority.Approve ->
    (* Phase 2: the approving nodes contribute threshold partials. *)
    let partials =
      List.filter_map
        (fun (node, share) ->
          if is_dissenting node then None
          else begin
            let partial = Crypto.Threshold_rsa.partial_sign share statement in
            Net.Network.send_exn net ~src:node ~dst:Net.Node_id.Auditor
              ~label:"certify:partial"
              ~bytes:
                (Smc.Proto_util.bignum_wire_size
                   partial.Crypto.Threshold_rsa.value);
            Some partial
          end)
        t.shares
    in
    Net.Network.round net;
    (match Crypto.Threshold_rsa.combine t.params statement partials with
    | Error e -> Error ("threshold combination failed: " ^ e)
    | Ok signature ->
      Ok
        {
          statement;
          signature;
          approvals = outcome.Smc.Majority.approvals;
          rejections = outcome.Smc.Majority.rejections;
        })

let certify t cluster ?dissenting audit =
  certify_statement t cluster ?dissenting (statement_of_audit audit)

let verify t certificate =
  Crypto.Threshold_rsa.verify t.params certificate.statement
    certificate.signature
