open Numtheory

type party = { node : Net.Node_id.t; set : string list }

type result = {
  intersection : string list;
  encrypted_by_all : (Net.Node_id.t * Bignum.t list) list;
}

module String_set = Set.Make (String)

let dedupe items = String_set.elements (String_set.of_list items)

(* The shared ring-encryption pass: every set ends up encrypted under
   every party's key and collected at the receiver.  Returns the
   parties' deduplicated plaintexts (for owner-side resolution) and the
   fully-encrypted sets keyed by origin. *)
let ring_encrypt ~net ~scheme ~receiver parties =
  let ring = List.map (fun p -> p.node) parties in
  let keypairs =
    List.map (fun p -> (p.node, scheme.Crypto.Commutative.fresh_keypair ())) parties
  in
  let keypair_of node =
    snd (List.find (fun (n, _) -> Net.Node_id.equal n node) keypairs)
  in
  (* Each party owns its (deduplicated) plaintext set and records it. *)
  let own_sets =
    List.map
      (fun p ->
        let set = dedupe p.set in
        Proto_util.observe net ~node:p.node ~sensitivity:Net.Ledger.Plaintext
          ~tag:"intersection:own-set" (Net.Ledger.Batch (Fun.id, set));
        (p.node, set))
      parties
  in
  (* First encryption layer is local: origin encrypts its own encoding. *)
  let initial =
    Proto_util.span net "smc.intersection.transform" (fun () ->
        List.map
          (fun (node, set) ->
            let kp = keypair_of node in
            let cts =
              kp.Crypto.Commutative.enc_many
                (List.map scheme.Crypto.Commutative.encode set)
            in
            (node, node, cts))
          own_sets)
  in
  (* n-1 relay hops: holder forwards; next node adds its layer. *)
  let n = List.length parties in
  let rec hops state hop =
    if hop >= n then state
    else begin
      let state =
        List.map
          (fun (origin, holder, cts) ->
            let next = Proto_util.ring_next ring holder in
            let cts =
              Proto_util.send_bignums net ~src:holder ~dst:next
                ~label:"intersection:relay" cts
            in
            let kp = keypair_of next in
            (origin, next, kp.Crypto.Commutative.enc_many cts))
          state
      in
      Proto_util.round ~label:"intersection" net;
      hops state (hop + 1)
    end
  in
  let final = Proto_util.span net "smc.intersection.exchange" (fun () ->
      hops initial 1)
  in
  (* Ship every fully-encrypted set to the receiver. *)
  let encrypted_by_all =
    Proto_util.span net "smc.intersection.collect" (fun () ->
        let encrypted =
          List.map
            (fun (origin, holder, cts) ->
              let cts =
                if Net.Node_id.equal holder receiver then cts
                else
                  Proto_util.send_bignums net ~src:holder ~dst:receiver
                    ~label:"intersection:collect" cts
              in
              (origin, cts))
            final
        in
        Proto_util.round ~label:"intersection" net;
        encrypted)
  in
  (own_sets, encrypted_by_all)

(* Equal fully-encrypted values <=> equal plaintexts (commutativity +
   injectivity, eqs 6-7): intersect on hex images. *)
let common_ciphertexts encrypted_by_all =
  let hex_sets =
    List.map
      (fun (_, cts) -> String_set.of_list (List.map Bignum.to_hex cts))
      encrypted_by_all
  in
  match hex_sets with
  | [] -> String_set.empty
  | first :: rest -> List.fold_left String_set.inter first rest

let run ~net ~scheme ~receiver parties =
  if List.length parties < 2 then
    invalid_arg "Set_intersection.run: need at least 2 parties";
  if not (List.exists (fun p -> Net.Node_id.equal p.node receiver) parties)
  then invalid_arg "Set_intersection.run: receiver must be a party";
  Proto_util.span net "smc.intersection" (fun () ->
      let own_sets, encrypted_by_all =
        ring_encrypt ~net ~scheme ~receiver parties
      in
      Proto_util.span net "smc.intersection.reveal" (fun () ->
          let common = common_ciphertexts encrypted_by_all in
          (* The receiver resolves plaintexts through its own
             correspondence. *)
          let receiver_plain =
            snd
              (List.find (fun (n', _) -> Net.Node_id.equal n' receiver) own_sets)
          in
          let receiver_cts =
            snd
              (List.find
                 (fun (n', _) -> Net.Node_id.equal n' receiver)
                 encrypted_by_all)
          in
          (* Tolerant zip: a Byzantine drop can leave the receiver with
             fewer fully-encrypted values than plaintexts.  The honest
             path always has equal lengths; under attack the receiver
             resolves what it can (the round guard has already recorded
             the accusation). *)
          let rec zip xs ys =
            match (xs, ys) with
            | x :: xs, y :: ys -> (x, y) :: zip xs ys
            | _, _ -> []
          in
          let intersection =
            List.filter_map
              (fun (plain, ct) ->
                if String_set.mem (Bignum.to_hex ct) common then Some plain
                else None)
              (zip receiver_plain receiver_cts)
            |> List.sort compare
          in
          Proto_util.observe net ~node:receiver
            ~sensitivity:Net.Ledger.Aggregate ~tag:"intersection:result"
            (Net.Ledger.Batch (Fun.id, intersection));
          { intersection; encrypted_by_all }))

let cardinality ~net ~scheme ~receiver parties =
  if List.length parties < 2 then
    invalid_arg "Set_intersection.cardinality: need at least 2 parties";
  Proto_util.span net "smc.intersection" (fun () ->
      let _, encrypted_by_all = ring_encrypt ~net ~scheme ~receiver parties in
      let count = String_set.cardinal (common_ciphertexts encrypted_by_all) in
      Proto_util.observe net ~node:receiver ~sensitivity:Net.Ledger.Aggregate
        ~tag:"intersection:cardinality" (Net.Ledger.Text (string_of_int count));
      count)

let naive ~net ~coordinator parties =
  let sets =
    List.map
      (fun p ->
        let set = dedupe p.set in
        if not (Net.Node_id.equal p.node coordinator) then begin
          let bytes = List.fold_left (fun a e -> a + String.length e) 0 set in
          Net.Network.send_exn net ~src:p.node ~dst:coordinator
            ~label:"intersection:naive" ~bytes
        end;
        Proto_util.observe net ~node:coordinator
          ~sensitivity:Net.Ledger.Plaintext ~tag:"intersection:naive"
          (Net.Ledger.Batch (Fun.id, set));
        String_set.of_list set)
      parties
  in
  Proto_util.round net;
  match sets with
  | [] -> []
  | first :: rest ->
    String_set.elements (List.fold_left String_set.inter first rest)
