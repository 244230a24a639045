open Numtheory

type party = { node : Net.Node_id.t; value : Bignum.t }

type verdict = {
  max_holder : Net.Node_id.t;
  min_holder : Net.Node_id.t;
  ranks : (Net.Node_id.t * int) list;
}

let verdict_of_values values =
  (* Rank 1 = smallest; ties share the lower rank. *)
  let sorted = List.sort (fun (_, a) (_, b) -> Bignum.compare a b) values in
  let below v =
    List.length (List.filter (fun (_, u) -> Bignum.compare u v < 0) sorted)
  in
  {
    min_holder = fst (List.hd sorted);
    (* Last in sort order; for ties any maximal holder is acceptable. *)
    max_holder = fst (List.hd (List.rev sorted));
    ranks = List.map (fun (node, v) -> (node, 1 + below v)) sorted;
  }

let run ~net ~rng ~ttp parties =
  if List.length parties < 2 then
    invalid_arg "Ranking.run: need at least 2 parties";
  Proto_util.span net "smc.ranking" (fun () ->
      let nodes = List.map (fun party -> party.node) parties in
      let blinding =
        Proto_util.span net "smc.ranking.exchange" (fun () ->
            Blind_compare.agree net rng ~protocol:"ranking" nodes
              Blind_compare.Order)
      in
      let blinded =
        Proto_util.span net "smc.ranking.transform" (fun () ->
            List.iter
              (fun party ->
                Proto_util.observe net ~node:party.node
                  ~sensitivity:Net.Ledger.Plaintext ~tag:"ranking:own-value"
                  (Net.Ledger.Text (Bignum.to_string party.value)))
              parties;
            let blinded =
              List.map
                (fun party ->
                  let w = Blind_compare.blind blinding party.value in
                  Blind_compare.submit net ~label:"ranking:submit" ~key_bytes:0
                    ~ttp party.node [ ((), "", w) ];
                  (party.node, w))
                parties
            in
            Net.Network.round ~label:"ranking" net;
            blinded)
      in
      Proto_util.span net "smc.ranking.reveal" (fun () ->
          let verdict = verdict_of_values blinded in
          (* The TTP announces holders and ranks: identities, no values. *)
          List.iter
            (fun node ->
              Net.Network.send_exn net ~src:ttp ~dst:node
                ~label:"ranking:verdict" ~bytes:(4 * List.length parties);
              Proto_util.observe net ~node ~sensitivity:Net.Ledger.Aggregate
                ~tag:"ranking:verdict"
                (Net.Ledger.Text (Net.Node_id.to_string verdict.max_holder)))
            nodes;
          Net.Network.round ~label:"ranking" net;
          verdict))

let comparisons ~net ~rng ~ttp =
  Blind_compare.pair net rng ~protocol:"compare" ~ttp Blind_compare.Order

let naive ~net ~coordinator parties =
  List.iter
    (fun party ->
      if not (Net.Node_id.equal party.node coordinator) then
        Net.Network.send_exn net ~src:party.node ~dst:coordinator
          ~label:"ranking:naive"
          ~bytes:(Proto_util.bignum_wire_size party.value);
      Proto_util.observe net ~node:coordinator
        ~sensitivity:Net.Ledger.Plaintext ~tag:"ranking:naive"
        (Net.Ledger.Text (Bignum.to_string party.value)))
    parties;
  Net.Network.round ~label:"ranking" net;
  verdict_of_values (List.map (fun party -> (party.node, party.value)) parties)
