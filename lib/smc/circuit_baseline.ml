open Numtheory

type party = { node : Net.Node_id.t; value : Bignum.t }

(* A shared bit is one XOR-share per party (a [bool list] in party
   order); the share lists below all follow that convention. *)

let and_gate_messages ~n = n + (2 * n * (n - 1))

let share_bit rng n b =
  let rec go i acc parity =
    if i = n - 1 then List.rev ((b <> parity) :: acc)
    else begin
      let s = Prng.bool rng in
      go (i + 1) (s :: acc) (parity <> s)
    end
  in
  go 0 [] false

let xor_shares = List.map2 (fun a b -> a <> b)

let open_bit net nodes shares =
  (* Every party broadcasts its share to every other party. *)
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Net.Node_id.equal src dst) then
            Net.Network.send_exn net ~src ~dst ~label:"circuit:open" ~bytes:1)
        nodes)
    nodes;
  List.fold_left ( <> ) false shares

let deal_triple net rng dealer nodes =
  let n = List.length nodes in
  let a = Prng.bool rng and b = Prng.bool rng in
  let c = a && b in
  let sa = share_bit rng n a and sb = share_bit rng n b and sc = share_bit rng n c in
  List.iter
    (fun dst ->
      if not (Net.Node_id.equal dealer dst) then
        Net.Network.send_exn net ~src:dealer ~dst ~label:"circuit:triple"
          ~bytes:3)
    nodes;
  (sa, sb, sc)

(* z = x AND y via Beaver: open d = x⊕a and e = y⊕b, then
   z_i = c_i ⊕ (d ∧ b_i) ⊕ (e ∧ a_i) ⊕ (d ∧ e at party 0). *)
let and_gate net rng dealer nodes x y =
  let sa, sb, sc = deal_triple net rng dealer nodes in
  let d = open_bit net nodes (xor_shares x sa) in
  let e = open_bit net nodes (xor_shares y sb) in
  Net.Network.round net;
  List.mapi
    (fun i ((ai, bi), ci) ->
      let z = ci <> (d && bi) <> (e && ai) in
      if i = 0 then z <> (d && e) else z)
    (List.combine (List.combine sa sb) sc)

let xor_gate = xor_shares

(* Full adder on shared bits: sum = x⊕y⊕cin (free);
   cout = ((x⊕cin) ∧ (y⊕cin)) ⊕ cin (one AND). *)
let full_adder net rng dealer nodes x y cin =
  let s = xor_gate (xor_gate x y) cin in
  let t = and_gate net rng dealer nodes (xor_gate x cin) (xor_gate y cin) in
  let cout = xor_gate t cin in
  (s, cout)

let secure_sum ~net ~rng ~dealer ~receiver ~width parties =
  let n = List.length parties in
  if n < 2 then invalid_arg "Circuit_baseline.secure_sum: need >= 2 parties";
  if width < 1 then invalid_arg "Circuit_baseline.secure_sum: width < 1";
  List.iter
    (fun party ->
      if Bignum.sign party.value < 0 || Bignum.num_bits party.value > width
      then invalid_arg "Circuit_baseline.secure_sum: value exceeds width")
    parties;
  let nodes = List.map (fun party -> party.node) parties in
  (* Input phase: party i shares each bit of its value with everyone. *)
  let shared_inputs =
    List.map
      (fun party ->
        Proto_util.observe net ~node:party.node
          ~sensitivity:Net.Ledger.Plaintext ~tag:"circuit:own-value"
          (Net.Ledger.Text (Bignum.to_string party.value));
        List.iter
          (fun dst ->
            if not (Net.Node_id.equal party.node dst) then
              Net.Network.send_exn net ~src:party.node ~dst
                ~label:"circuit:input" ~bytes:((width + 7) / 8))
          nodes;
        List.init width (fun bit ->
          share_bit rng n (Bignum.test_bit party.value bit)))
      parties
  in
  Net.Network.round net;
  let zero_bits = List.init width (fun _ -> List.init n (fun _ -> false)) in
  (* Ripple-carry accumulation of all inputs. *)
  let add_words acc word =
    let rec go acc_bits word_bits carry out =
      match (acc_bits, word_bits) with
      | [], [] -> List.rev out
      | a :: arest, w' :: wrest ->
        let s, carry = full_adder net rng dealer nodes a w' carry in
        go arest wrest carry (s :: out)
      | _ -> assert false
    in
    go acc word (List.init n (fun _ -> false)) []
  in
  let total_shared = List.fold_left add_words zero_bits shared_inputs in
  (* Output phase: open each sum bit toward the receiver. *)
  let bits = List.map (fun b -> open_bit net nodes b) total_shared in
  Net.Network.round net;
  let total =
    List.fold_left
      (fun (acc, i) b ->
        ((if b then Bignum.logor acc (Bignum.shift_left Bignum.one i) else acc), i + 1))
      (Bignum.zero, 0) bits
    |> fst
  in
  Proto_util.observe net ~node:receiver ~sensitivity:Net.Ledger.Aggregate
    ~tag:"circuit:result" (Net.Ledger.Text (Bignum.to_string total));
  total
