module String_set = Set.Make (String)

type role = Participant | Blind_ttp

type spec = {
  node : Net.Node_id.t;
  role : role;
  secrets : string list;
  allowed_outputs : string list;
}

type reason =
  | Unknown_observer
  | Foreign_secret
  | Plaintext_at_ttp
  | Unauthorized_plaintext
  | Unauthorized_aggregate
  | Verifier_leak
  | Checkpoint_leak

type violation = { event : Transcript.event; reason : reason }

let reason_to_string = function
  | Unknown_observer -> "observation by a node outside the protocol spec"
  | Foreign_secret -> "foreign secret visible verbatim"
  | Plaintext_at_ttp -> "plaintext in a blind role's view"
  | Unauthorized_plaintext ->
    "plaintext outside own secrets and authorized outputs"
  | Unauthorized_aggregate -> "aggregate output the spec does not authorize"
  | Verifier_leak ->
    "verification channel carried something other than a commitment digest"
  | Checkpoint_leak ->
    "checkpoint publication carried something other than a chain digest"

let violation_to_string { event; reason } =
  Printf.sprintf "%s saw %S (%s, tag %s, phase %s): %s"
    (Net.Node_id.to_string event.Smc.Proto_util.node)
    event.Smc.Proto_util.value
    (Net.Ledger.sensitivity_to_string event.Smc.Proto_util.sensitivity)
    event.Smc.Proto_util.tag
    (match event.Smc.Proto_util.phase with
    | [] -> "-"
    | path -> String.concat "/" path)
    (reason_to_string reason)


(* The Byzantine round guard's cross-checks ride the transcript as
   "byz:"-tagged events.  The defense must not become a side channel:
   a verification event may only ever be a Metadata observation of a
   SHA-256 commitment (64 lowercase hex) — anything else is the
   verifier itself leaking. *)
let is_commitment_digest v =
  String.length v = 64
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       v

let verification_tag tag =
  String.length tag >= 4 && String.equal (String.sub tag 0 4) "byz:"

(* The continuous engine's checkpoint heads ride the transcript as
   "ckpt:"-tagged events, under the same discipline: a published
   checkpoint is Metadata and exactly one 64-hex chain digest — a
   glsn, a count, a record value riding along is the publisher leaking. *)
let checkpoint_tag tag =
  String.length tag >= 5 && String.equal (String.sub tag 0 5) "ckpt:"

let audit ~specs transcript =
  let all_secrets =
    List.fold_left
      (fun acc s -> String_set.union acc (String_set.of_list s.secrets))
      String_set.empty specs
  in
  let spec_of node =
    List.find_opt (fun s -> Net.Node_id.equal s.node node) specs
  in
  List.filter_map
    (fun (e : Transcript.event) ->
      let fail reason = Some { event = e; reason } in
      match spec_of e.node with
      | None -> fail Unknown_observer
      | Some s when checkpoint_tag e.tag ->
        if
          (match e.sensitivity with Net.Ledger.Metadata -> false | _ -> true)
          || not (is_commitment_digest e.value)
        then fail Checkpoint_leak
        else
          let own = String_set.of_list s.secrets in
          let allowed = String_set.of_list s.allowed_outputs in
          let foreign =
            String_set.diff (String_set.diff all_secrets own) allowed
          in
          if String_set.mem e.value foreign then fail Foreign_secret
          else None
      | Some s when verification_tag e.tag ->
        if
          (match e.sensitivity with Net.Ledger.Metadata -> false | _ -> true)
          || not (is_commitment_digest e.value)
        then fail Verifier_leak
        else
          (* even a digest-shaped value must not be a secret verbatim *)
          let own = String_set.of_list s.secrets in
          let allowed = String_set.of_list s.allowed_outputs in
          let foreign =
            String_set.diff (String_set.diff all_secrets own) allowed
          in
          if String_set.mem e.value foreign then fail Foreign_secret
          else None
      | Some s ->
        let own = String_set.of_list s.secrets in
        let allowed = String_set.of_list s.allowed_outputs in
        let by_sensitivity =
          match e.sensitivity with
          | Net.Ledger.Plaintext -> (
            match s.role with
            | Blind_ttp -> Some Plaintext_at_ttp
            | Participant ->
              if
                String_set.mem e.value own || String_set.mem e.value allowed
              then None
              else Some Unauthorized_plaintext)
          | Net.Ledger.Aggregate ->
            let ok =
              match s.role with
              | Blind_ttp -> String_set.mem e.value allowed
              | Participant ->
                String_set.mem e.value own || String_set.mem e.value allowed
            in
            if ok then None else Some Unauthorized_aggregate
          | Net.Ledger.Ciphertext | Net.Ledger.Blinded | Net.Ledger.Share
          | Net.Ledger.Metadata ->
            (* Definition 1's permitted "secondary forms". *)
            None
        in
        (match by_sensitivity with
        | Some reason -> fail reason
        | None ->
          (* A secret this node neither holds nor is owed as output must
             never appear verbatim — whatever sensitivity the protocol
             claims for the observation.  Catches leaks mislabeled as
             blinded/encrypted material. *)
          let foreign =
            String_set.diff (String_set.diff all_secrets own) allowed
          in
          if String_set.mem e.value foreign then fail Foreign_secret
          else None))
    (Transcript.events transcript)
