open Numtheory

type party = { node : Net.Node_id.t; set : string list }

module String_set = Set.Make (String)
module String_map = Map.Make (String)

let dedupe items = String_set.elements (String_set.of_list items)

(* Ring pass shared by the full and size-only variants: returns the
   distinct fully-encrypted elements at the receiver plus the keypair
   lookup (needed by the decode ring). *)
let ring_collect ~net ~scheme ~receiver parties =
  let ring = List.map (fun p -> p.node) parties in
  let keypairs =
    List.map (fun p -> (p.node, scheme.Crypto.Commutative.fresh_keypair ())) parties
  in
  let keypair_of node =
    snd (List.find (fun (n, _) -> Net.Node_id.equal n node) keypairs)
  in
  (* Ring-encrypt every local set under every key, as in intersection. *)
  let initial =
    Proto_util.span net "smc.union.transform" (fun () ->
        List.map
          (fun p ->
            let set = dedupe p.set in
            Proto_util.observe net ~node:p.node
              ~sensitivity:Net.Ledger.Plaintext ~tag:"union:own-set"
              (Net.Ledger.Batch (Fun.id, set));
            let kp = keypair_of p.node in
            (* Remember plaintext alongside, so the receiver can later verify
               nothing: the mapping never leaves the origin. *)
            ( p.node,
              kp.Crypto.Commutative.enc_many
                (List.map scheme.Crypto.Commutative.encode set) ))
          parties)
  in
  let n = List.length parties in
  let rec hops state hop =
    if hop >= n then state
    else begin
      let state =
        List.map
          (fun (holder, cts) ->
            let next = Proto_util.ring_next ring holder in
            let cts =
              Proto_util.send_bignums net ~src:holder ~dst:next
                ~label:"union:relay" cts
            in
            let kp = keypair_of next in
            (next, kp.Crypto.Commutative.enc_many cts))
          state
      in
      Net.Network.round ~label:"union" net;
      hops state (hop + 1)
    end
  in
  let final =
    Proto_util.span net "smc.union.exchange" (fun () -> hops initial 1)
  in
  (* Collect at the receiver; keep one copy of each distinct ciphertext. *)
  let all_cts =
    Proto_util.span net "smc.union.collect" (fun () ->
        let cts =
          List.concat_map
            (fun (holder, cts) ->
              if Net.Node_id.equal holder receiver then cts
              else
                Proto_util.send_bignums net ~src:holder ~dst:receiver
                  ~label:"union:collect" cts)
            final
        in
        Net.Network.round ~label:"union" net;
        cts)
  in
  let distinct =
    List.fold_left
      (fun acc ct -> String_map.add (Bignum.to_hex ct) ct acc)
      String_map.empty all_cts
    |> String_map.bindings |> List.map snd
  in
  (distinct, keypair_of, ring)

let run ~net ~scheme ~rng ~receiver parties =
  if List.length parties < 2 then
    invalid_arg "Set_union.run: need at least 2 parties";
  Proto_util.span net "smc.union" (fun () ->
      let distinct, keypair_of, ring =
        ring_collect ~net ~scheme ~receiver parties
      in
      Proto_util.span net "smc.union.reveal" (fun () ->
          (* Shuffle before the decode ring so positions stop identifying
             owners. *)
          let shuffled = Proto_util.shuffle rng distinct in
          (* Decode ring: every party peels its layer off the whole
             batch. *)
          let holder, group_elements =
            List.fold_left
              (fun (holder, cts) next ->
                let cts =
                  if Net.Node_id.equal holder next then cts
                  else begin
                    let cts =
                      Proto_util.send_bignums net ~src:holder ~dst:next
                        ~label:"union:decode" cts
                    in
                    Net.Network.round ~label:"union" net;
                    cts
                  end
                in
                let kp = keypair_of next in
                (next, kp.Crypto.Commutative.dec_many cts))
              (receiver, shuffled) ring
          in
          let group_elements =
            if Net.Node_id.equal holder receiver then group_elements
            else begin
              let delivered =
                Proto_util.send_bignums net ~src:holder ~dst:receiver
                  ~label:"union:decode-return" group_elements
              in
              Net.Network.round ~label:"union" net;
              delivered
            end
          in
          (* In the paper the set items are embedded reversibly, so peeling
             all layers yields the plaintext directly.  Our embedding is a
             hash, so we resolve decoded group elements through a dictionary
             of candidate encodings instead — the information flow is
             identical: the receiver obtains exactly the union plaintexts
             (its authorized output) and the shuffle above already unlinked
             elements from owners. *)
          let encode_table =
            List.fold_left
              (fun acc p ->
                List.fold_left
                  (fun acc e ->
                    String_map.add
                      (Bignum.to_hex (scheme.Crypto.Commutative.encode e))
                      e acc)
                  acc (dedupe p.set))
              String_map.empty parties
          in
          let union =
            List.filter_map
              (fun g -> String_map.find_opt (Bignum.to_hex g) encode_table)
              group_elements
            |> List.sort compare
          in
          Proto_util.observe net ~node:receiver
            ~sensitivity:Net.Ledger.Aggregate ~tag:"union:result"
            (Net.Ledger.Batch (Fun.id, union));
          union))

let cardinality ~net ~scheme ~receiver parties =
  if List.length parties < 2 then
    invalid_arg "Set_union.cardinality: need at least 2 parties";
  Proto_util.span net "smc.union" (fun () ->
      let distinct, _, _ = ring_collect ~net ~scheme ~receiver parties in
      let count = List.length distinct in
      Proto_util.observe net ~node:receiver ~sensitivity:Net.Ledger.Aggregate
        ~tag:"union:cardinality" (Net.Ledger.Text (string_of_int count));
      count)

let naive ~net ~coordinator parties =
  let union =
    List.fold_left
      (fun acc p ->
        let set = dedupe p.set in
        if not (Net.Node_id.equal p.node coordinator) then begin
          let bytes = List.fold_left (fun a e -> a + String.length e) 0 set in
          Net.Network.send_exn net ~src:p.node ~dst:coordinator
            ~label:"union:naive" ~bytes
        end;
        Proto_util.observe net ~node:coordinator
          ~sensitivity:Net.Ledger.Plaintext ~tag:"union:naive"
          (Net.Ledger.Batch (Fun.id, set));
        String_set.union acc (String_set.of_list set))
      String_set.empty parties
  in
  Net.Network.round net;
  String_set.elements union
