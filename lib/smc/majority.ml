type vote = Approve | Reject

let vote_to_string = function Approve -> "approve" | Reject -> "reject"

type outcome = {
  verdict : vote option;
  approvals : int;
  rejections : int;
  flagged : Net.Node_id.t list;
}

let broadcast net nodes ~src ~label ~bytes =
  List.iter
    (fun dst ->
      if not (Net.Node_id.equal src dst) then
        Net.Network.send_exn net ~src ~dst ~label ~bytes)
    nodes

let run ~net ~rng ~votes ?(cheaters = []) () =
  if List.length votes < 2 then
    invalid_arg "Majority.run: need at least 2 voters";
  let nodes = List.map fst votes in
  if
    List.length (List.sort_uniq Net.Node_id.compare nodes)
    <> List.length nodes
  then invalid_arg "Majority.run: duplicate voters";
  (* Phase 1: commitments. *)
  let committed =
    List.map
      (fun (node, vote) ->
        let commitment, opening =
          Crypto.Commitment.commit rng (vote_to_string vote)
        in
        broadcast net nodes ~src:node ~label:"majority:commit" ~bytes:32;
        List.iter
          (fun dst ->
            Proto_util.observe net ~node:dst
              ~sensitivity:Net.Ledger.Ciphertext ~tag:"majority:commit"
              (Net.Ledger.Text (Crypto.Commitment.to_hex commitment)))
          nodes;
        (node, vote, commitment, opening))
      votes
  in
  Net.Network.round net;
  (* Phase 2: openings.  A cheater reveals a switched vote, which cannot
     open its own commitment. *)
  let opened =
    List.map
      (fun (node, vote, commitment, honest_opening) ->
        let opening =
          match
            List.find_opt (fun (n, _) -> Net.Node_id.equal n node) cheaters
          with
          | Some (_, switched) ->
            { honest_opening with
              Crypto.Commitment.value = vote_to_string switched }
          | None -> honest_opening
        in
        broadcast net nodes ~src:node ~label:"majority:reveal"
          ~bytes:(String.length opening.Crypto.Commitment.value + 32);
        (* Opened votes are public by design: every voter sees them. *)
        List.iter
          (fun dst ->
            Proto_util.observe net ~node:dst
              ~sensitivity:Net.Ledger.Plaintext ~tag:"majority:reveal"
              (Net.Ledger.Text opening.Crypto.Commitment.value))
          nodes;
        (node, vote, commitment, opening))
      committed
  in
  Net.Network.round net;
  (* Every node verifies every opening; failures are flagged and their
     votes discarded. *)
  let valid, flagged =
    List.partition
      (fun (_, _, commitment, opening) ->
        Crypto.Commitment.verify commitment opening)
      opened
  in
  let flagged = List.map (fun (node, _, _, _) -> node) flagged in
  let count v =
    List.length
      (List.filter
         (fun (_, _, _, opening) ->
           String.equal opening.Crypto.Commitment.value (vote_to_string v))
         valid)
  in
  let approvals = count Approve and rejections = count Reject in
  let verdict =
    if approvals > rejections then Some Approve
    else if rejections > approvals then Some Reject
    else None
  in
  List.iter
    (fun node ->
      Proto_util.observe net ~node ~sensitivity:Net.Ledger.Aggregate
        ~tag:"majority:verdict"
        (Net.Ledger.Text
           (match verdict with
           | Some v -> vote_to_string v
           | None -> "tie")))
    nodes;
  { verdict; approvals; rejections; flagged }
