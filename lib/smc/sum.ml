open Numtheory

type party = { node : Net.Node_id.t; value : Bignum.t }

let check_inputs ~p ~k parties =
  let n = List.length parties in
  if n < 2 then invalid_arg "Sum: need at least 2 parties";
  if k < 1 || k > n then invalid_arg "Sum: threshold k outside [1, n]";
  List.iter
    (fun party ->
      if Bignum.sign party.value < 0 || Bignum.compare party.value p >= 0 then
        invalid_arg "Sum: value outside [0, p)")
    parties

let share_tag = "sum:share"

let run_general ~net ~rng ~p ~k ~receiver ~weight_of parties =
  check_inputs ~p ~k parties;
  Proto_util.span net "smc.sum" (fun () ->
      let n = List.length parties in
      let nodes = List.map (fun party -> party.node) parties in
      let xs = Crypto.Shamir.default_xs ~n in
      (* Round 1: P_i splits its secret and deals the j-th share to P_j. *)
      let dealt =
        Proto_util.span net "smc.sum.transform" (fun () ->
            List.map
              (fun party ->
                Proto_util.observe net ~node:party.node
                  ~sensitivity:Net.Ledger.Plaintext ~tag:"sum:own-value"
                  (Net.Ledger.Text (Bignum.to_string party.value));
                Crypto.Shamir.split rng ~p ~k ~xs ~secret:party.value
                |> List.map
                     (Crypto.Shamir.scale_share ~p (weight_of party.node)))
              parties)
      in
      (* Shares continue through the protocol as actually received:
         [Proto_util.deliver_share] is the Byzantine tamper/verify
         point and the identity on the honest path. *)
      let delivered =
        Proto_util.span net "smc.sum.exchange" (fun () ->
            let delivered =
              List.map2
                (fun party shares ->
                  List.map2
                    (fun dst (share : Crypto.Shamir.share) ->
                      let share =
                        if Net.Node_id.equal party.node dst then share
                        else begin
                          Net.Network.send_exn net ~src:party.node ~dst
                            ~label:share_tag
                            ~bytes:(Proto_util.bignum_wire_size share.y);
                          {
                            share with
                            y =
                              Proto_util.deliver_share net ~src:party.node
                                ~dst ~label:share_tag share.y;
                          }
                        end
                      in
                      Proto_util.observe net ~node:dst
                        ~sensitivity:Net.Ledger.Share ~tag:share_tag
                        (Net.Ledger.Text (Bignum.to_string share.y));
                      share)
                    nodes shares)
                parties dealt
            in
            Net.Network.round ~label:"sum" net;
            delivered)
      in
      Proto_util.span net "smc.sum.reveal" (fun () ->
          (* Round 2: P_j sums its column — a share of F(z) = Σ f_i(z). *)
          let columns =
            List.mapi
              (fun j node ->
                let column =
                  List.map (fun shares -> List.nth shares j) delivered
                in
                (node, Crypto.Shamir.sum_shares ~p column))
              nodes
          in
          (* Round 3: first k parties forward their aggregate share. *)
          let selected = List.filteri (fun i _ -> i < k) columns in
          let collected =
            List.map
              (fun (node, (share : Crypto.Shamir.share)) ->
                let share =
                  if Net.Node_id.equal node receiver then share
                  else begin
                    Net.Network.send_exn net ~src:node ~dst:receiver
                      ~label:"sum:aggregate"
                      ~bytes:(Proto_util.bignum_wire_size share.y);
                    {
                      share with
                      y =
                        Proto_util.deliver_share net ~src:node ~dst:receiver
                          ~label:"sum:aggregate" share.y;
                    }
                  end
                in
                Proto_util.observe net ~node:receiver
                  ~sensitivity:Net.Ledger.Share ~tag:"sum:aggregate"
                  (Net.Ledger.Text (Bignum.to_string share.y));
                share)
              selected
          in
          Net.Network.round ~label:"sum" net;
          let total =
            match Round_guard.current () with
            | None -> Crypto.Shamir.reconstruct ~p collected
            | Some guard ->
              (* Verified mode: over-provision reconstruction with the
                 n - k remaining aggregate shares so forged shares are
                 identified by consistency voting.  The extras ride the
                 verification channel — the §3 cost model counts exactly
                 k aggregate messages, so they are charged to the guard,
                 never to the network counters. *)
              let extras =
                List.filteri (fun i _ -> i >= k) columns
                |> List.map (fun (node, (share : Crypto.Shamir.share)) ->
                       Round_guard.charge guard ~msgs:1
                         ~bytes:(Proto_util.bignum_wire_size share.y);
                       let y =
                         match Net.Adversary.current () with
                         | None -> share.y
                         | Some adv -> (
                           match
                             Net.Adversary.tamper adv ~src:node
                               ~dst:receiver ~label:"sum:aggregate-verify"
                               [ share.y ]
                           with
                           | [ y ] -> y
                           | _ -> share.y)
                       in
                       Proto_util.observe net ~node:receiver
                         ~sensitivity:Net.Ledger.Share
                         ~tag:"sum:aggregate-verify"
                         (Net.Ledger.Text (Bignum.to_string y));
                       { share with y })
              in
              let robust =
                Crypto.Shamir.reconstruct_robust ~p ~k (collected @ extras)
              in
              let node_of_x x =
                List.find_opt
                  (fun (x', _) -> Bignum.equal x' x)
                  (List.combine xs nodes)
              in
              List.iter
                (fun (s : Crypto.Shamir.share) ->
                  match node_of_x s.x with
                  | Some (_, node) ->
                    Round_guard.accuse guard ~accused:node
                      ~label:"sum:aggregate" ~reason:Round_guard.Forged_share
                  | None -> ())
                robust.forged;
              robust.secret
          in
          Proto_util.observe net ~node:receiver
            ~sensitivity:Net.Ledger.Aggregate ~tag:"sum:result"
            (Net.Ledger.Text (Bignum.to_string total));
          total))

let run ~net ~rng ~p ~k ~receiver parties =
  run_general ~net ~rng ~p ~k ~receiver ~weight_of:(fun _ -> Bignum.one) parties

let run_weighted ~net ~rng ~p ~k ~receiver ~weights parties =
  let weight_of node =
    match List.find_opt (fun (n, _) -> Net.Node_id.equal n node) weights with
    | Some (_, w) -> Modular.normalize w ~m:p
    | None -> Bignum.one
  in
  run_general ~net ~rng ~p ~k ~receiver ~weight_of parties

let run_ttp_coordinated ~net ~rng ~public ~secret ~coordinator ~receiver
    parties =
  if List.length parties < 2 then invalid_arg "Sum: need at least 2 parties";
  (* Round 1: each party sends one ciphertext to the coordinator. *)
  let ciphertexts =
    List.map
      (fun party ->
        Proto_util.observe net ~node:party.node
          ~sensitivity:Net.Ledger.Plaintext ~tag:"sum:own-value"
          (Net.Ledger.Text (Bignum.to_string party.value));
        let c = Crypto.Paillier.encrypt rng public party.value in
        Net.Network.send_exn net ~src:party.node ~dst:coordinator
          ~label:"sum:paillier-ct"
          ~bytes:(Proto_util.bignum_wire_size c);
        Proto_util.observe net ~node:coordinator
          ~sensitivity:Net.Ledger.Ciphertext ~tag:"sum:paillier-ct"
          (Net.Ledger.Text (Bignum.to_hex c));
        c)
      parties
  in
  Net.Network.round ~label:"sum" net;
  (* The blind coordinator folds homomorphically — one multiplication per
     party, no key material. *)
  let folded =
    match ciphertexts with
    | [] -> assert false
    | first :: rest -> List.fold_left (Crypto.Paillier.add public) first rest
  in
  Net.Network.send_exn net ~src:coordinator ~dst:receiver
    ~label:"sum:paillier-total" ~bytes:(Proto_util.bignum_wire_size folded);
  Net.Network.round ~label:"sum" net;
  let total = Crypto.Paillier.decrypt public secret folded in
  Proto_util.observe net ~node:receiver ~sensitivity:Net.Ledger.Aggregate
    ~tag:"sum:result" (Net.Ledger.Text (Bignum.to_string total));
  total

let naive ~net ~coordinator parties =
  let total =
    List.fold_left
      (fun acc party ->
        if not (Net.Node_id.equal party.node coordinator) then
          Net.Network.send_exn net ~src:party.node ~dst:coordinator
            ~label:"sum:naive"
            ~bytes:(Proto_util.bignum_wire_size party.value);
        Proto_util.observe net ~node:coordinator
          ~sensitivity:Net.Ledger.Plaintext ~tag:"sum:naive"
          (Net.Ledger.Text (Bignum.to_string party.value));
        Bignum.add acc party.value)
      Bignum.zero parties
  in
  Net.Network.round ~label:"sum" net;
  total
