let entry_digest cluster ~node ~ticket_id =
  let store = Cluster.store_of cluster node in
  let glsns =
    Glsn.Set.elements (Access_control.glsns_of (Storage.acl store) ~ticket_id)
  in
  Crypto.Sha256.digest
    (String.concat "," (ticket_id :: List.map Glsn.to_string glsns))

let digest_tally cluster ~ticket_id =
  let nodes = Cluster.nodes cluster in
  let digests =
    List.map (fun node -> (node, entry_digest cluster ~node ~ticket_id)) nodes
  in
  let counts =
    List.fold_left
      (fun acc (_, d) ->
        let current = Option.value ~default:0 (List.assoc_opt d acc) in
        (d, current + 1) :: List.remove_assoc d acc)
      [] digests
  in
  let majority =
    List.find_opt (fun (_, c) -> 2 * c > List.length nodes) counts
  in
  (digests, majority)

let diverged cluster ~ticket_id =
  match digest_tally cluster ~ticket_id with
  | _, None -> Cluster.nodes cluster (* no majority: everyone is suspect *)
  | digests, Some (winner, _) ->
    List.filter_map
      (fun (node, d) -> if String.equal d winner then None else Some node)
      digests

let reconcile cluster ~rng ~ticket_id =
  let net = Cluster.net cluster in
  let nodes = Cluster.nodes cluster in
  (* Commit-then-reveal the digests so a compromised node cannot tailor
     its claim to the others' reveals. *)
  let commitments =
    List.map
      (fun node ->
        let digest = entry_digest cluster ~node ~ticket_id in
        let commitment, opening = Crypto.Commitment.commit rng digest in
        List.iter
          (fun dst ->
            if not (Net.Node_id.equal node dst) then
              Net.Network.send_exn net ~src:node ~dst ~label:"aclsync:commit"
                ~bytes:32)
          nodes;
        (node, digest, commitment, opening))
      nodes
  in
  Net.Network.round net;
  List.iter
    (fun (node, _, _, opening) ->
      List.iter
        (fun dst ->
          if not (Net.Node_id.equal node dst) then
            Net.Network.send_exn net ~src:node ~dst ~label:"aclsync:reveal"
              ~bytes:(String.length opening.Crypto.Commitment.value + 32))
        nodes)
    commitments;
  Net.Network.round net;
  (* Everyone verifies every opening and tallies. *)
  let valid =
    List.filter
      (fun (_, _, commitment, opening) ->
        Crypto.Commitment.verify commitment opening)
      commitments
  in
  let counts =
    List.fold_left
      (fun acc (_, d, _, _) ->
        let current = Option.value ~default:0 (List.assoc_opt d acc) in
        (d, current + 1) :: List.remove_assoc d acc)
      [] valid
  in
  match List.find_opt (fun (_, c) -> 2 * c > List.length nodes) counts with
  | None -> Error "no strict majority over ACL entry digests"
  | Some (winner, _) ->
    let majority_holder =
      match
        List.find_opt (fun (_, d, _, _) -> String.equal d winner) valid
      with
      | Some (node, _, _, _) -> node
      | None -> assert false
    in
    let majority_entry =
      Access_control.glsns_of
        (Storage.acl (Cluster.store_of cluster majority_holder))
        ~ticket_id
    in
    let overruled =
      List.filter_map
        (fun (node, d, _, _) ->
          if String.equal d winner then None
          else begin
            (* Pull the majority entry and adopt it wholesale. *)
            Net.Network.send_exn net ~src:node ~dst:majority_holder
              ~label:"aclsync:fetch" ~bytes:8;
            Net.Network.send_exn net ~src:majority_holder ~dst:node
              ~label:"aclsync:entry"
              ~bytes:(8 * Glsn.Set.cardinal majority_entry);
            let acl = Storage.acl (Cluster.store_of cluster node) in
            Glsn.Set.iter
              (fun glsn -> Access_control.revoke acl ~ticket_id glsn)
              (Access_control.glsns_of acl ~ticket_id);
            Glsn.Set.iter
              (fun glsn -> Access_control.grant acl ~ticket_id glsn)
              majority_entry;
            Smc.Proto_util.observe net ~node ~sensitivity:Net.Ledger.Metadata
              ~tag:"aclsync:adopted" (Net.Ledger.Text winner);
            Some node
          end)
        valid
    in
    Net.Network.round net;
    Ok overruled
