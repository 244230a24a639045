type member = {
  identity : string;
  pseudonym : string;
  mutable has_invite_authority : bool;
}

type enrolled = {
  member : member;
  token : Evidence.token;
  secrets : Evidence.secrets;
  node : Net.Node_id.t;
}

type t = {
  net : Net.Network.t;
  authority : Evidence.Authority.t;
  mutable enrolled : enrolled list;  (* join order *)
  mutable chain : Evidence.piece list;  (* oldest first *)
}

let enroll t identity =
  let token, secrets = Evidence.Authority.issue t.authority ~identity in
  let node = Net.Node_id.Dla (List.length t.enrolled) in
  (* Credential request/response with the authority. *)
  Net.Network.send_exn t.net ~src:node ~dst:Net.Node_id.Authority
    ~label:"membership:enroll" ~bytes:(String.length identity);
  Net.Network.send_exn t.net ~src:Net.Node_id.Authority ~dst:node
    ~label:"membership:token" ~bytes:(64 * Evidence.pair_count);
  Net.Network.round t.net;
  let entry =
    {
      member =
        {
          identity;
          pseudonym = token.Evidence.pseudonym;
          has_invite_authority = false;
        };
      token;
      secrets;
      node;
    }
  in
  t.enrolled <- t.enrolled @ [ entry ];
  entry

let found ~net ~authority_seed ~identity =
  let t =
    { net; authority = Evidence.Authority.create ~seed:authority_seed;
      enrolled = []; chain = [] }
  in
  let founder = enroll t identity in
  founder.member.has_invite_authority <- true;
  t

let authority t = t.authority
let members t = List.map (fun e -> e.member) t.enrolled
let chain t = t.chain

let enrolled_by_pseudonym t pseudonym =
  List.find_opt (fun e -> String.equal e.member.pseudonym pseudonym) t.enrolled

let run_handshake t inviter_entry ~invitee_identity ~pp ~sc =
  (* The invitee enrolls with the CA first (it needs a pseudonym for the
     handshake), then PP/SC/RE runs between the two pseudonymous nodes. *)
  let invitee_entry = enroll t invitee_identity in
  let src = inviter_entry.node and dst = invitee_entry.node in
  Net.Network.send_exn t.net ~src ~dst ~label:"membership:pp"
    ~bytes:(String.length pp);
  Net.Network.round t.net;
  Net.Network.send_exn t.net ~src:dst ~dst:src ~label:"membership:sc"
    ~bytes:(String.length sc);
  Net.Network.round t.net;
  let piece =
    Evidence.make_piece ~inviter_token:inviter_entry.token
      ~inviter_secrets:inviter_entry.secrets
      ~invitee:invitee_entry.member.pseudonym ~pp ~sc
  in
  Net.Network.send_exn t.net ~src ~dst ~label:"membership:re"
    ~bytes:(32 * Evidence.pair_count);
  Net.Network.round t.net;
  t.chain <- t.chain @ [ piece ];
  (* Authority passes along: the invitee may now invite, the inviter is
     spent. *)
  inviter_entry.member.has_invite_authority <- false;
  invitee_entry.member.has_invite_authority <- true;
  invitee_entry.member

let invite t ~inviter ~invitee_identity ~pp ~sc =
  match enrolled_by_pseudonym t inviter with
  | None -> Error "unknown inviter pseudonym"
  | Some entry ->
    if not entry.member.has_invite_authority then
      Error "invitation authority already spent"
    else Ok (run_handshake t entry ~invitee_identity ~pp ~sc)

let rogue_invite t ~inviter ~invitee_identity ~pp ~sc =
  match enrolled_by_pseudonym t inviter with
  | None -> Error "unknown inviter pseudonym"
  | Some entry -> Ok (run_handshake t entry ~invitee_identity ~pp ~sc)

let verify_chain t =
  let founder_pseudonym =
    match t.enrolled with
    | [] -> ""
    | founder :: _ -> founder.member.pseudonym
  in
  let rec go admitted = function
    | [] -> Ok ()
    | piece :: rest -> (
      match Evidence.verify_piece t.authority piece with
      | Error e -> Error e
      | Ok () ->
        if not (List.mem piece.Evidence.inviter admitted) then
          Error
            (Printf.sprintf "inviter %s was not an admitted member"
               piece.Evidence.inviter)
        else go (piece.Evidence.invitee :: admitted) rest)
  in
  go [ founder_pseudonym ] t.chain

let detect_cheaters t =
  (* Any two chain pieces by the same inviter expose it. *)
  let rec pairs acc = function
    | [] -> List.rev acc
    | piece :: rest ->
      let dups =
        List.filter
          (fun other ->
            String.equal other.Evidence.inviter piece.Evidence.inviter)
          rest
      in
      let exposed =
        List.filter_map
          (fun other ->
            match Evidence.recover_identity_block piece other with
            | None -> None
            | Some block -> (
              match Evidence.Authority.identity_of_block t.authority block with
              | Some identity -> Some (piece.Evidence.inviter, identity)
              | None -> None))
          dups
      in
      pairs (exposed @ acc) rest
  in
  List.sort_uniq compare (pairs [] t.chain)
