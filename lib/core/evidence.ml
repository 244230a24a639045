open Numtheory

let pair_count = 32
let block_len = 16

type token = {
  pseudonym : string;
  commitments : (Crypto.Commitment.t * Crypto.Commitment.t) array;
  mac : string;
}

type secrets = {
  openings0 : Crypto.Commitment.opening array;
  openings1 : Crypto.Commitment.opening array;
}

type piece = {
  inviter : string;
  invitee : string;
  policy_proposal : string;
  service_commitment : string;
  challenge : bool array;
  responses : Crypto.Commitment.opening array;
  inviter_token : token;
}

let xor_strings a b =
  assert (String.length a = String.length b);
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let token_body pseudonym commitments =
  let buf = Buffer.create 256 in
  Buffer.add_string buf pseudonym;
  Array.iter
    (fun (c0, c1) ->
      Buffer.add_string buf (Crypto.Commitment.to_hex c0);
      Buffer.add_string buf (Crypto.Commitment.to_hex c1))
    commitments;
  Buffer.contents buf

module Authority = struct
  type t = {
    key : string;
    rng : Prng.t;
    mutable registry : (string * string) list;  (* block -> identity *)
  }

  let create ~seed =
    let rng = Prng.create ~seed in
    { key = Prng.bytes rng 32; rng; registry = [] }

  let identity_block identity =
    String.sub (Crypto.Sha256.digest ("id:" ^ identity)) 0 block_len

  let issue t ~identity =
    let block = identity_block identity in
    if not (List.mem_assoc block t.registry) then
      t.registry <- (block, identity) :: t.registry;
    let pseudonym = "nym:" ^ Crypto.Sha256.to_hex (Prng.bytes t.rng 8) in
    let pairs =
      Array.init pair_count (fun _ ->
          let s0 = Prng.bytes t.rng block_len in
          let s1 = xor_strings s0 block in
          let c0, o0 = Crypto.Commitment.commit t.rng s0 in
          let c1, o1 = Crypto.Commitment.commit t.rng s1 in
          ((c0, c1), (o0, o1)))
    in
    let commitments = Array.map fst pairs in
    let openings0 = Array.map (fun (_, (o0, _)) -> o0) pairs in
    let openings1 = Array.map (fun (_, (_, o1)) -> o1) pairs in
    let mac = Crypto.Sha256.hmac ~key:t.key (token_body pseudonym commitments) in
    ({ pseudonym; commitments; mac }, { openings0; openings1 })

  let token_valid t token =
    String.equal token.mac
      (Crypto.Sha256.hmac ~key:t.key
         (token_body token.pseudonym token.commitments))

  let identity_of_block t block = List.assoc_opt block t.registry
end

(* Deterministic challenge: SHA-256 over the whole negotiation
   transcript, truncated to [pair_count] bits.  Binding the terms into
   the challenge is the r-binding: altering PP or SC afterwards
   invalidates the responses. *)
let challenge_of ~inviter ~invitee ~pp ~sc =
  let digest =
    Crypto.Sha256.digest
      (String.concat "\x00" [ "challenge"; inviter; invitee; pp; sc ])
  in
  Array.init pair_count (fun i ->
      Char.code digest.[i / 8] land (1 lsl (i mod 8)) <> 0)

(* Open the challenge-selected share of each pair. *)
let respond secrets challenge =
  Array.mapi
    (fun i bit -> if bit then secrets.openings1.(i) else secrets.openings0.(i))
    challenge

let make_piece ~inviter_token ~inviter_secrets ~invitee ~pp ~sc =
  let challenge =
    challenge_of ~inviter:inviter_token.pseudonym ~invitee ~pp ~sc
  in
  {
    inviter = inviter_token.pseudonym;
    invitee;
    policy_proposal = pp;
    service_commitment = sc;
    challenge;
    responses = respond inviter_secrets challenge;
    inviter_token;
  }

let verify_piece authority piece =
  if not (String.equal piece.inviter piece.inviter_token.pseudonym) then
    Error "pseudonym does not match token"
  else if not (Authority.token_valid authority piece.inviter_token) then
    Error "token MAC invalid"
  else begin
    let expected =
      challenge_of ~inviter:piece.inviter ~invitee:piece.invitee
        ~pp:piece.policy_proposal ~sc:piece.service_commitment
    in
    if expected <> piece.challenge then Error "challenge mismatch (terms altered?)"
    else begin
      let ok = ref true in
      Array.iteri
        (fun i bit ->
          let c0, c1 = piece.inviter_token.commitments.(i) in
          let commitment = if bit then c1 else c0 in
          if not (Crypto.Commitment.verify commitment piece.responses.(i)) then
            ok := false)
        piece.challenge;
      if !ok then Ok () else Error "response does not open commitment"
    end
  end

let recover_identity_block p1 p2 =
  if not (String.equal p1.inviter p2.inviter) then None
  else begin
    let rec differing i =
      if i >= pair_count then None
      else if p1.challenge.(i) <> p2.challenge.(i) then Some i
      else differing (i + 1)
    in
    match differing 0 with
    | None -> None
    | Some i ->
      let v1 = p1.responses.(i).Crypto.Commitment.value in
      let v2 = p2.responses.(i).Crypto.Commitment.value in
      if String.length v1 = block_len && String.length v2 = block_len then
        Some (xor_strings v1 v2)
      else None
  end
