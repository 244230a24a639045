open Numtheory

let run ~net ~rng ?(bits = 192) ~domain ~alice:(alice_node, i)
    ~bob:(bob_node, j) () =
  if domain < 2 then invalid_arg "Millionaire.run: domain too small";
  if i < 1 || i > domain || j < 1 || j > domain then
    invalid_arg "Millionaire.run: wealth outside [1, domain]";
  Proto_util.observe net ~node:alice_node ~sensitivity:Net.Ledger.Plaintext
    ~tag:"millionaire:own-wealth" (Net.Ledger.Text (string_of_int i));
  Proto_util.observe net ~node:bob_node ~sensitivity:Net.Ledger.Plaintext
    ~tag:"millionaire:own-wealth" (Net.Ledger.Text (string_of_int j));
  (* Alice's trapdoor permutation; the public key is already with Bob. *)
  let secret = Crypto.Rsa.generate rng ~bits () in
  let public = Crypto.Rsa.public secret in
  let n = public.Crypto.Rsa.n in
  (* 1. Bob encrypts a random x and blinds his wealth into it. *)
  let x = Prng.bignum_below rng n in
  let k = Crypto.Rsa.encrypt_raw public x in
  let m = Modular.sub k (Bignum.of_int j) ~m:n in
  Net.Network.send_exn net ~src:bob_node ~dst:alice_node
    ~label:"millionaire:blinded" ~bytes:(Proto_util.bignum_wire_size m);
  Proto_util.observe net ~node:alice_node ~sensitivity:Net.Ledger.Ciphertext
    ~tag:"millionaire:blinded" (Net.Ledger.Text (Bignum.to_hex m));
  Net.Network.round net;
  (* 2. Alice decrypts all domain candidates; y_j recovers Bob's x. *)
  let ys =
    Array.init domain (fun u ->
        Crypto.Rsa.decrypt_raw secret
          (Modular.add m (Bignum.of_int (u + 1)) ~m:n))
  in
  (* 3. Reduce by a random prime until the residues are pairwise at
     least 2 apart (so the +1 marking below cannot collide). *)
  let acceptable zs =
    let l = Array.to_list zs in
    let rec ok = function
      | [] -> true
      | z :: rest ->
        List.for_all
          (fun z' ->
            (not (Bignum.equal z z'))
            && (not (Bignum.equal (Bignum.succ z) z'))
            && not (Bignum.equal z (Bignum.succ z')))
          rest
        && ok rest
    in
    ok l
  in
  let rec pick_prime () =
    let p = Primes.random_prime rng ~bits:64 in
    let zs = Array.map (fun y -> Bignum.erem y p) ys in
    if acceptable zs then (p, zs) else pick_prime ()
  in
  let p, zs = pick_prime () in
  (* 4. Mark every position above Alice's wealth with +1 and return. *)
  let ws =
    Array.mapi
      (fun idx z ->
        let u = idx + 1 in
        if u <= i then z else Modular.add z Bignum.one ~m:p)
      zs
  in
  Net.Network.send_exn net ~src:alice_node ~dst:bob_node
    ~label:"millionaire:residues"
    ~bytes:
      (Array.fold_left
         (fun acc w -> acc + Proto_util.bignum_wire_size w)
         (Proto_util.bignum_wire_size p)
         ws);
  Proto_util.observe net ~node:bob_node ~sensitivity:Net.Ledger.Blinded
    ~tag:"millionaire:residues"
    (Net.Ledger.Batch (Bignum.to_string, Array.to_list ws));
  Net.Network.round net;
  (* 5. Bob tests his own position: unmarked iff j <= i. *)
  let verdict = Bignum.equal ws.(j - 1) (Bignum.erem x p) in
  Net.Network.send_exn net ~src:bob_node ~dst:alice_node
    ~label:"millionaire:verdict" ~bytes:1;
  Net.Network.round net;
  verdict
