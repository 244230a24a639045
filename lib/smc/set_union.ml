open Numtheory

type party = Set_intersection.party = { node : Net.Node_id.t; set : string list }

module String_set = Set.Make (String)
module String_map = Map.Make (String)

let dedupe items = String_set.elements (String_set.of_list items)

(* ∩ₛ's ring pass under the union's names, then one copy of each
   distinct fully-encrypted element at the receiver. *)
let ring_collect ~net ~scheme ~receiver parties =
  let ring =
    Set_intersection.ring_pass ~protocol:"union" ~net ~scheme ~receiver parties
  in
  let distinct =
    List.fold_left
      (fun acc ct -> String_map.add (Bignum.to_hex ct) ct acc)
      String_map.empty
      (List.concat_map snd ring.Set_intersection.fully_encrypted)
    |> String_map.bindings |> List.map snd
  in
  (distinct, ring)

let run ~net ~scheme ~rng ~receiver parties =
  if List.length parties < 2 then
    invalid_arg "Set_union.run: need at least 2 parties";
  Proto_util.span net "smc.union" (fun () ->
      let distinct, ring = ring_collect ~net ~scheme ~receiver parties in
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
                let kp = ring.Set_intersection.keypair_of next in
                (next, kp.Crypto.Commutative.dec_many cts))
              (receiver, shuffled)
              (List.map (fun p -> p.node) parties)
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
              (fun acc (_, set) ->
                List.fold_left
                  (fun acc e ->
                    String_map.add
                      (Bignum.to_hex (scheme.Crypto.Commutative.encode e))
                      e acc)
                  acc set)
              String_map.empty ring.Set_intersection.own_sets
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
      let distinct, _ = ring_collect ~net ~scheme ~receiver parties in
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
