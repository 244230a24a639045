open Numtheory

type party = { node : Net.Node_id.t; value : Bignum.t }

type verdict = {
  max_holder : Net.Node_id.t;
  min_holder : Net.Node_id.t;
  ranks : (Net.Node_id.t * int) list;
}

let verdict_of_values values =
  (* values : (node, comparable) list; rank 1 = smallest, ties share. *)
  let sorted = List.sort (fun (_, a) (_, b) -> Bignum.compare a b) values in
  let ranks =
    let rec go idx prev acc = function
      | [] -> List.rev acc
      | (node, v) :: rest ->
        let rank =
          match prev with
          | Some (pv, prank) when Bignum.equal pv v -> prank
          | _ -> idx
        in
        go (idx + 1) (Some (v, rank)) ((node, rank) :: acc) rest
    in
    go 1 None [] sorted
  in
  let min_holder = fst (List.hd sorted) in
  let max_holder =
    (* Last in sort order; for ties any maximal holder is acceptable. *)
    fst (List.nth sorted (List.length sorted - 1))
  in
  { max_holder; min_holder; ranks }

let broadcast_negotiation net nodes =
  (* Pairwise agreement on the shared transform, modeled as a ring pass. *)
  let rec go = function
    | a :: (b :: _ as rest) ->
      Net.Network.send_exn net ~src:a ~dst:b ~label:"ranking:negotiate"
        ~bytes:16;
      go rest
    | _ -> ()
  in
  go nodes;
  Net.Network.round ~label:"ranking" net

let run ~net ~rng ~ttp parties =
  if List.length parties < 2 then
    invalid_arg "Ranking.run: need at least 2 parties";
  Proto_util.span net "smc.ranking" (fun () ->
      let nodes = List.map (fun party -> party.node) parties in
      Proto_util.span net "smc.ranking.exchange" (fun () ->
          broadcast_negotiation net nodes);
      let blinded =
        Proto_util.span net "smc.ranking.transform" (fun () ->
            let blind = Crypto.Blinding.generate_monotone rng ~bits:64 in
            List.iter
              (fun party ->
                Proto_util.observe net ~node:party.node
                  ~sensitivity:Net.Ledger.Plaintext ~tag:"ranking:own-value"
                  (Net.Ledger.Text (Bignum.to_string party.value)))
              parties;
            (* Every party applies the same agreed map, so the whole
               column blinds as one batch pass before the submissions. *)
            let ws =
              Crypto.Blinding.apply_monotone_many blind
                (List.map (fun party -> party.value) parties)
            in
            let blinded =
              List.map2
                (fun party w ->
                  Net.Network.send_exn net ~src:party.node ~dst:ttp
                    ~label:"ranking:submit"
                    ~bytes:(Proto_util.bignum_wire_size w);
                  Proto_util.observe net ~node:ttp
                    ~sensitivity:Net.Ledger.Blinded ~tag:"ranking:submit"
                    (Net.Ledger.Text (Bignum.to_string w));
                  (party.node, w))
                parties ws
            in
            Net.Network.round ~label:"ranking" net;
            blinded)
      in
      Proto_util.span net "smc.ranking.reveal" (fun () ->
          let verdict = verdict_of_values blinded in
          (* The TTP announces holders and ranks (identities only, no
             values). *)
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

let comparisons ~net ~rng ~ttp ~left:(lnode, lval) ~right:(rnode, rval) =
  Net.Network.send_exn net ~src:lnode ~dst:rnode ~label:"compare:negotiate"
    ~bytes:16;
  Net.Network.round ~label:"compare" net;
  let blind = Crypto.Blinding.generate_monotone rng ~bits:64 in
  let wl, wr =
    match Crypto.Blinding.apply_monotone_many blind [ lval; rval ] with
    | [ wl; wr ] -> (wl, wr)
    | _ -> assert false
  in
  List.iter
    (fun (src, w) ->
      Net.Network.send_exn net ~src ~dst:ttp ~label:"compare:submit"
        ~bytes:(Proto_util.bignum_wire_size w);
      Proto_util.observe net ~node:ttp ~sensitivity:Net.Ledger.Blinded
        ~tag:"compare:submit" (Net.Ledger.Text (Bignum.to_string w)))
    [ (lnode, wl); (rnode, wr) ];
  Net.Network.round ~label:"compare" net;
  let verdict = Bignum.compare wl wr in
  List.iter
    (fun dst ->
      Net.Network.send_exn net ~src:ttp ~dst ~label:"compare:verdict" ~bytes:1)
    [ lnode; rnode ];
  Net.Network.round ~label:"compare" net;
  verdict

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
