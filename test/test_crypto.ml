(* Crypto substrate tests: FIPS 180-4 / RFC 4231 vectors for the hash
   layer, then algebraic properties (commutativity, threshold
   reconstruction, quasi-commutativity) for the paper's primitives. *)

open Numtheory

let bn = Bignum.of_int
let bignum_testable = Alcotest.testable Bignum.pp Bignum.equal
let check_bn msg expected actual = Alcotest.check bignum_testable msg expected actual

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_fips_vectors () =
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string) (Printf.sprintf "sha256(%S)" msg) expected
        (Crypto.Sha256.digest_hex msg))
    [ ( "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
      ( "abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" )
    ]

let test_sha256_million_a () =
  (* FIPS long vector: one million 'a' characters. *)
  let ctx = Crypto.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Crypto.Sha256.update ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let test_sha256_incremental_matches_oneshot () =
  let parts = [ "On the "; "Confidential "; ""; "Auditing of Distributed";
                " Computing Systems"; String.make 200 'x' ] in
  let whole = String.concat "" parts in
  let ctx = Crypto.Sha256.init () in
  List.iter (Crypto.Sha256.update ctx) parts;
  Alcotest.(check string) "incremental = oneshot"
    (Crypto.Sha256.digest_hex whole)
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let test_sha256_block_boundaries () =
  (* Lengths straddling the 64-byte block and 56-byte padding limits. *)
  List.iter
    (fun n ->
      let s = String.make n 'q' in
      let ctx = Crypto.Sha256.init () in
      String.iter (fun c -> Crypto.Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Crypto.Sha256.digest_hex s)
        (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129; 1000 ]

(* Two domains hashing at once share no state: every digest equals the
   sequential one.  Both domains start together and walk the set in
   opposite orders, so at any one moment they hash different blocks. *)
let test_sha256_two_domains () =
  let n = 20_000 in
  let msgs =
    Array.init n (fun i ->
        String.init (1 + (i mod 200)) (fun j ->
            Char.chr (((i * 31) + (j * 7)) land 0xff)))
  in
  let expected = Array.map Crypto.Sha256.digest msgs in
  let ready = Atomic.make 0 in
  let hash_in position =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        Array.init n (fun i -> Crypto.Sha256.digest msgs.(position i)))
  in
  let forward = Fun.id and backward i = n - 1 - i in
  let a = hash_in forward and b = hash_in backward in
  let wrong domain position =
    let digests = Domain.join domain and c = ref 0 in
    Array.iteri (fun i d -> if d <> expected.(position i) then incr c) digests;
    !c
  in
  Alcotest.(check int) "forward domain" 0 (wrong a forward);
  Alcotest.(check int) "backward domain" 0 (wrong b backward)

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1, 2 and 7. *)
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Sha256.hmac_hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Sha256.hmac_hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "case 7 (large key)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Crypto.Sha256.hmac_hex
       ~key:(String.make 131 '\xaa')
       "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.")

(* ------------------------------------------------------------------ *)
(* Pohlig–Hellman                                                      *)
(* ------------------------------------------------------------------ *)

let ph_params =
  (* One 128-bit safe-prime group shared across tests (generation is the
     expensive part). *)
  lazy
    (let rng = Prng.create ~seed:2024 in
     Crypto.Pohlig_hellman.generate_params rng ~bits:128)

let test_ph_roundtrip () =
  let params = Lazy.force ph_params in
  let rng = Prng.create ~seed:1 in
  let key = Crypto.Pohlig_hellman.generate_key rng params in
  List.iter
    (fun m ->
      let m = bn m in
      let c = Crypto.Pohlig_hellman.encrypt params key m in
      check_bn "decrypt . encrypt = id" m (Crypto.Pohlig_hellman.decrypt params key c))
    [ 1; 2; 42; 123456789 ]

let test_ph_commutativity () =
  (* Equation (6): stacked encryptions agree for any key permutation. *)
  let params = Lazy.force ph_params in
  let rng = Prng.create ~seed:2 in
  let k1 = Crypto.Pohlig_hellman.generate_key rng params in
  let k2 = Crypto.Pohlig_hellman.generate_key rng params in
  let k3 = Crypto.Pohlig_hellman.generate_key rng params in
  let enc k m = Crypto.Pohlig_hellman.encrypt params k m in
  let m = bn 987654321 in
  let c123 = enc k3 (enc k2 (enc k1 m)) in
  let c312 = enc k2 (enc k1 (enc k3 m)) in
  let c231 = enc k1 (enc k3 (enc k2 m)) in
  check_bn "perm 1" c123 c312;
  check_bn "perm 2" c123 c231;
  (* And decryption peels in any order too. *)
  let dec k c = Crypto.Pohlig_hellman.decrypt params k c in
  check_bn "unstack any order" m (dec k2 (dec k3 (dec k1 c123)))

(* Seeded sweep in the style of the chaos suite; shared via Generators
   (CRYPTO_SEED=<int> appends a replay seed). *)
let sweep_seeds = Generators.sweep_seeds

let test_ph_commutativity_sweep () =
  (* E_a(E_b(x)) = E_b(E_a(x)) over fresh key pairs and hashed-in group
     elements, per sweep seed. *)
  let params = Lazy.force ph_params in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let ka = Crypto.Pohlig_hellman.generate_key rng params in
      let kb = Crypto.Pohlig_hellman.generate_key rng params in
      let enc k m = Crypto.Pohlig_hellman.encrypt params k m in
      let dec k c = Crypto.Pohlig_hellman.decrypt params k c in
      List.iter
        (fun i ->
          let x =
            Crypto.Pohlig_hellman.encode params
              (Printf.sprintf "elem-%d-%d" seed i)
          in
          let ab = enc ka (enc kb x) and ba = enc kb (enc ka x) in
          check_bn (Printf.sprintf "seed %d commutes" seed) ab ba;
          (* Layers peel in the opposite order they were applied too. *)
          check_bn
            (Printf.sprintf "seed %d unstacks" seed)
            x
            (dec kb (dec ka ab)))
        [ 0; 1; 2; 3; 4 ])
    sweep_seeds

let test_modexp_fastpath_sweep () =
  (* All exponentiation paths agree, per sweep seed: scalar Montgomery
     dispatch, the batch plan, and the classic square-and-multiply
     reference — across odd and even moduli and across exponent widths
     straddling the tiny-exponent fallback (< 16 bits) and the windowed
     path. *)
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let odd_m =
        Bignum.logor (Prng.bits rng 80) (Bignum.succ (Bignum.shift_left Bignum.one 79))
      in
      let even_m = Bignum.shift_left (Prng.bits rng 40) 1 in
      let even_m = if Bignum.is_zero even_m then Bignum.two else even_m in
      let bases = List.init 5 (fun _ -> Prng.bits rng 90) in
      List.iter
        (fun m ->
          List.iter
            (fun ebits ->
              let e = Prng.bits rng ebits in
              let reference = List.map (fun b -> Modular.pow_classic b e ~m) bases in
              List.iter2
                (fun b r ->
                  check_bn
                    (Printf.sprintf "seed %d scalar (%d-bit e)" seed ebits)
                    r (Modular.pow b e ~m))
                bases reference;
              List.iter2
                (fun r r' ->
                  check_bn
                    (Printf.sprintf "seed %d batch (%d-bit e)" seed ebits)
                    r r')
                reference
                (Modular.pow_many bases e ~m))
            [ 3; 15; 17; 128 ])
        [ odd_m; even_m ])
    sweep_seeds

let test_ph_batch_matches_scalar () =
  (* encrypt_many/decrypt_many are pure batching: element-for-element
     identical to the scalar calls. *)
  let params = Lazy.force ph_params in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let key = Crypto.Pohlig_hellman.generate_key rng params in
      let ms =
        List.init 6 (fun i ->
            Crypto.Pohlig_hellman.encode params
              (Printf.sprintf "batch-%d-%d" seed i))
      in
      let cts = Crypto.Pohlig_hellman.encrypt_many params key ms in
      List.iter2
        (fun m c ->
          check_bn
            (Printf.sprintf "seed %d batch = scalar encrypt" seed)
            (Crypto.Pohlig_hellman.encrypt params key m)
            c)
        ms cts;
      List.iter2
        (fun m m' -> check_bn (Printf.sprintf "seed %d batch decrypt" seed) m m')
        ms
        (Crypto.Pohlig_hellman.decrypt_many params key cts))
    sweep_seeds

let test_ph_resident_chain_matches_scalar () =
  (* A batch that enters the residue domain once and chains layers
     in-domain exposes, at every hop, views byte-identical to the
     scalar chain — including the degenerate single-key, single-element
     ring.  Peeling the layers back in-domain recovers the encodings. *)
  let params = Lazy.force ph_params in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let keys =
        List.init 3 (fun _ -> Crypto.Pohlig_hellman.generate_key rng params)
      in
      List.iter
        (fun (n_keys, n_elems) ->
          let keys = List.filteri (fun i _ -> i < n_keys) keys in
          let ms =
            List.init n_elems (fun i ->
                Crypto.Pohlig_hellman.encode params
                  (Printf.sprintf "res-%d-%d" seed i))
          in
          let scalar =
            List.fold_left
              (fun cts k -> Crypto.Pohlig_hellman.encrypt_many params k cts)
              ms keys
          in
          let res =
            List.fold_left
              (fun res k ->
                Crypto.Pohlig_hellman.encrypt_resident_many params k res)
              (Crypto.Pohlig_hellman.enter_many params ms)
              keys
          in
          List.iter2
            (fun c r ->
              check_bn
                (Printf.sprintf "seed %d %d-key %d-elem view" seed n_keys
                   n_elems)
                c
                (Crypto.Pohlig_hellman.view r))
            scalar res;
          let peeled =
            List.fold_left
              (fun res k ->
                Crypto.Pohlig_hellman.decrypt_resident_many params k res)
              res keys
          in
          List.iter2
            (fun m r ->
              check_bn
                (Printf.sprintf "seed %d %d-key %d-elem peel" seed n_keys
                   n_elems)
                m
                (Crypto.Pohlig_hellman.view r))
            ms peeled)
        [ (1, 1); (1, 5); (3, 1); (3, 5) ])
    sweep_seeds

let test_ph_resident_resync () =
  (* resync reconciles a resident with what actually arrived on the
     wire: an untouched delivery keeps the chained residue, a tampered
     one re-enters the domain from the delivered value — later layers
     operate on the bytes that were really received. *)
  let params = Lazy.force ph_params in
  let rng = Prng.create ~seed:26 in
  let key = Crypto.Pohlig_hellman.generate_key rng params in
  let m = Crypto.Pohlig_hellman.encode params "resync-elem" in
  let r = List.hd (Crypto.Pohlig_hellman.enter_many params [ m ]) in
  let kept = Crypto.Pohlig_hellman.resync params r (Crypto.Pohlig_hellman.view r) in
  check_bn "clean delivery keeps view" m (Crypto.Pohlig_hellman.view kept);
  check_bn "clean delivery encrypts identically"
    (Crypto.Pohlig_hellman.encrypt params key m)
    (Crypto.Pohlig_hellman.view
       (List.hd (Crypto.Pohlig_hellman.encrypt_resident_many params key [ kept ])));
  let tampered_wire = Bignum.succ m in
  let tampered = Crypto.Pohlig_hellman.resync params r tampered_wire in
  check_bn "tampered delivery adopts wire value" tampered_wire
    (Crypto.Pohlig_hellman.view tampered);
  check_bn "later layers encrypt the delivered bytes"
    (Crypto.Pohlig_hellman.encrypt params key tampered_wire)
    (Crypto.Pohlig_hellman.view
       (List.hd
          (Crypto.Pohlig_hellman.encrypt_resident_many params key [ tampered ])))

let test_ph_distinct_messages_distinct_ciphertexts () =
  (* Equation (7): different plaintexts stay different. *)
  let params = Lazy.force ph_params in
  let rng = Prng.create ~seed:3 in
  let k1 = Crypto.Pohlig_hellman.generate_key rng params in
  let k2 = Crypto.Pohlig_hellman.generate_key rng params in
  let enc k m = Crypto.Pohlig_hellman.encrypt params k m in
  Alcotest.(check bool) "injective" false
    (Bignum.equal (enc k2 (enc k1 (bn 7))) (enc k2 (enc k1 (bn 8))))

let test_ph_domain_check () =
  let params = Lazy.force ph_params in
  let rng = Prng.create ~seed:4 in
  let key = Crypto.Pohlig_hellman.generate_key rng params in
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pohlig_hellman: message outside [1, p-1]") (fun () ->
      ignore (Crypto.Pohlig_hellman.encrypt params key Bignum.zero))

let test_ph_encode () =
  let params = Lazy.force ph_params in
  let e1 = Crypto.Pohlig_hellman.encode params "alice" in
  let e2 = Crypto.Pohlig_hellman.encode params "alice" in
  let e3 = Crypto.Pohlig_hellman.encode params "bob" in
  check_bn "deterministic" e1 e2;
  Alcotest.(check bool) "distinct payloads" false (Bignum.equal e1 e3);
  let p = (Lazy.force ph_params : Crypto.Pohlig_hellman.params).p in
  Alcotest.(check bool) "in range" true
    (Bignum.compare e1 Bignum.one > 0 && Bignum.compare e1 (Bignum.pred p) < 0)

(* ------------------------------------------------------------------ *)
(* XOR pad                                                             *)
(* ------------------------------------------------------------------ *)

let test_xor_roundtrip_and_commutativity () =
  let rng = Prng.create ~seed:5 in
  let params = Crypto.Xor_pad.params ~width_bits:256 in
  let k1 = Crypto.Xor_pad.generate_key rng params in
  let k2 = Crypto.Xor_pad.generate_key rng params in
  let m = Crypto.Xor_pad.encode params "payload" in
  let e k m = Crypto.Xor_pad.encrypt params k m in
  check_bn "roundtrip" m (Crypto.Xor_pad.decrypt params k1 (e k1 m));
  check_bn "commutes" (e k2 (e k1 m)) (e k1 (e k2 m));
  check_bn "peel any order" m
    (Crypto.Xor_pad.decrypt params k1 (Crypto.Xor_pad.decrypt params k2 (e k2 (e k1 m))))

let test_xor_domain_check () =
  let rng = Prng.create ~seed:6 in
  let params = Crypto.Xor_pad.params ~width_bits:16 in
  let k = Crypto.Xor_pad.generate_key rng params in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Xor_pad: message outside pad width") (fun () ->
      ignore (Crypto.Xor_pad.encrypt params k (bn 70000)))

(* ------------------------------------------------------------------ *)
(* Scheme abstraction                                                  *)
(* ------------------------------------------------------------------ *)

let scheme_commutes scheme =
  let open Crypto.Commutative in
  let kp1 = scheme.fresh_keypair () in
  let kp2 = scheme.fresh_keypair () in
  let m = scheme.encode "some log element" in
  Bignum.equal (kp1.enc (kp2.enc m)) (kp2.enc (kp1.enc m))
  && Bignum.equal m (kp2.dec (kp1.dec (kp1.enc (kp2.enc m))))

let test_schemes () =
  let rng = Prng.create ~seed:7 in
  let ph = Crypto.Commutative.pohlig_hellman rng (Lazy.force ph_params) in
  let xp = Crypto.Commutative.xor_pad rng (Crypto.Xor_pad.params ~width_bits:256) in
  Alcotest.(check bool) "pohlig-hellman commutes" true (scheme_commutes ph);
  Alcotest.(check bool) "xor-pad commutes" true (scheme_commutes xp)

(* ------------------------------------------------------------------ *)
(* Shamir                                                              *)
(* ------------------------------------------------------------------ *)

let shamir_p = lazy (Bignum.of_string "2305843009213693951" (* 2^61 - 1 *))

let test_shamir_roundtrip () =
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:8 in
  let secret = bn 424242 in
  let xs = Crypto.Shamir.default_xs ~n:5 in
  let shares = Crypto.Shamir.split rng ~p ~k:3 ~xs ~secret in
  check_bn "all 5 shares" secret (Crypto.Shamir.reconstruct ~p shares);
  (* Any 3 of 5 suffice. *)
  let take3 = [ List.nth shares 0; List.nth shares 2; List.nth shares 4 ] in
  check_bn "3 of 5" secret (Crypto.Shamir.reconstruct ~p take3)

let test_shamir_too_few_shares_wrong () =
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:9 in
  let secret = bn 31337 in
  let xs = Crypto.Shamir.default_xs ~n:5 in
  let shares = Crypto.Shamir.split rng ~p ~k:3 ~xs ~secret in
  (* With only 2 shares the interpolation is a line through 2 points of a
     degree-2 curve: overwhelming odds it misses the secret. *)
  let two = [ List.nth shares 0; List.nth shares 1 ] in
  Alcotest.(check bool) "2 shares don't reveal" false
    (Bignum.equal secret (Crypto.Shamir.reconstruct ~p two))

let test_shamir_linearity () =
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:10 in
  let xs = Crypto.Shamir.default_xs ~n:4 in
  let a = bn 1000 and b = bn 234 in
  let sa = Crypto.Shamir.split rng ~p ~k:2 ~xs ~secret:a in
  let sb = Crypto.Shamir.split rng ~p ~k:2 ~xs ~secret:b in
  let summed = List.map2 (Crypto.Shamir.add_shares ~p) sa sb in
  check_bn "share addition = secret addition" (bn 1234)
    (Crypto.Shamir.reconstruct ~p summed);
  let scaled = List.map (Crypto.Shamir.scale_share ~p (bn 3)) sa in
  check_bn "share scaling = secret scaling" (bn 3000)
    (Crypto.Shamir.reconstruct ~p scaled)

let test_shamir_validation () =
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:11 in
  let xs = Crypto.Shamir.default_xs ~n:3 in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Shamir.split: k exceeds share count") (fun () ->
      ignore (Crypto.Shamir.split rng ~p ~k:4 ~xs ~secret:Bignum.one));
  Alcotest.check_raises "zero point"
    (Invalid_argument "Shamir.split: evaluation point is zero mod p") (fun () ->
      ignore
        (Crypto.Shamir.split rng ~p ~k:1 ~xs:[ Bignum.zero ] ~secret:Bignum.one));
  Alcotest.check_raises "empty reconstruct"
    (Invalid_argument "Shamir.reconstruct: no shares") (fun () ->
      ignore (Crypto.Shamir.reconstruct ~p []))

let test_shamir_k_equals_n () =
  (* Degenerate threshold: every share is required.  All n reconstruct
     exactly; any n-1 of them interpolate a different polynomial and
     (with overwhelming probability over the fixed seed) miss the
     secret. *)
  let p = Lazy.force shamir_p in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + (seed mod 5) in
      let secret = bn (7 + ((seed * 31) mod 100_000)) in
      let xs = Crypto.Shamir.default_xs ~n in
      let shares = Crypto.Shamir.split rng ~p ~k:n ~xs ~secret in
      check_bn
        (Printf.sprintf "seed %d: k=n=%d reconstructs" seed n)
        secret
        (Crypto.Shamir.reconstruct ~p shares);
      List.iteri
        (fun drop _ ->
          let partial =
            List.filteri (fun i _ -> i <> drop) shares
          in
          if partial <> [] then
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: missing share %d hides secret" seed
                 drop)
              false
              (Bignum.equal secret (Crypto.Shamir.reconstruct ~p partial)))
        shares)
    sweep_seeds

let test_shamir_robust_recovery () =
  (* Over-provisioned k-of-n with consistency voting: the secret
     survives forged shares and the vote names exactly the forged
     x-coordinates. *)
  let p = Lazy.force shamir_p in
  (* Unique decoding needs n >= k + 2t: with k = 3 and n = 8 the vote
     tolerates t = 2 forgeries (required agreement max k (n/2+1) = 5;
     any lie-consistent polynomial gathers at most 2 forged + 2 honest
     shares). *)
  let k = 3 and n = 8 in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let secret = bn (1 + ((seed * 97) mod 50_000)) in
      let xs = Crypto.Shamir.default_xs ~n in
      let shares = Crypto.Shamir.split rng ~p ~k ~xs ~secret in
      List.iter
        (fun forged_idx ->
          let tampered =
            List.mapi
              (fun i (s : Crypto.Shamir.share) ->
                if List.mem i forged_idx then
                  { s with
                    Crypto.Shamir.y =
                      Bignum.rem
                        (Bignum.add_int s.Crypto.Shamir.y
                           (seed + 13 + (i * 1009)))
                        p
                  }
                else s)
              shares
          in
          let robust = Crypto.Shamir.reconstruct_robust ~p ~k tampered in
          check_bn
            (Printf.sprintf "seed %d: secret despite %d forgeries" seed
               (List.length forged_idx))
            secret robust.Crypto.Shamir.secret;
          let forged_xs =
            List.map
              (fun (s : Crypto.Shamir.share) -> Bignum.to_hex s.Crypto.Shamir.x)
              robust.Crypto.Shamir.forged
          in
          let expected_xs =
            List.filteri (fun i _ -> List.mem i forged_idx) xs
            |> List.map Bignum.to_hex
          in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d: forged x-coordinates identified" seed)
            (List.sort compare expected_xs)
            (List.sort compare forged_xs);
          Alcotest.(check int)
            (Printf.sprintf "seed %d: the rest agree" seed)
            (n - List.length forged_idx)
            (List.length robust.Crypto.Shamir.agreeing))
        [ [ 1 ]; [ 1; 4 ] ];
      (* no forgeries: everything agrees, nothing accused *)
      let clean = Crypto.Shamir.reconstruct_robust ~p ~k shares in
      check_bn (Printf.sprintf "seed %d: clean path" seed) secret
        clean.Crypto.Shamir.secret;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: clean path accuses nobody" seed)
        0
        (List.length clean.Crypto.Shamir.forged))
    sweep_seeds

let test_shamir_robust_k_equals_n () =
  (* n = k leaves no redundancy to vote with: degrades to plain
     reconstruction, trusting every share. *)
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:21 in
  let secret = bn 8191 in
  let xs = Crypto.Shamir.default_xs ~n:3 in
  let shares = Crypto.Shamir.split rng ~p ~k:3 ~xs ~secret in
  let robust = Crypto.Shamir.reconstruct_robust ~p ~k:3 shares in
  check_bn "k = n reconstructs" secret robust.Crypto.Shamir.secret;
  Alcotest.(check int) "no forgeries reported" 0
    (List.length robust.Crypto.Shamir.forged)

let test_shamir_robust_inconsistent () =
  (* Three independently-forged shares out of six with k = 2: the true
     line keeps only 3 supporters, below the required strict majority
     (max k (n/2+1) = 4), and the mutually-inconsistent lies support no
     line either — the failure is typed, never a silent wrong secret. *)
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:22 in
  let secret = bn 31337 in
  let xs = Crypto.Shamir.default_xs ~n:6 in
  let shares = Crypto.Shamir.split rng ~p ~k:2 ~xs ~secret in
  let tampered =
    List.mapi
      (fun i (s : Crypto.Shamir.share) ->
        if i < 3 then
          { s with
            Crypto.Shamir.y =
              Bignum.rem
                (Bignum.add_int s.Crypto.Shamir.y (7 + (i * 987_654)))
                p
          }
        else s)
      shares
  in
  match Crypto.Shamir.reconstruct_robust ~p ~k:2 tampered with
  | (_ : Crypto.Shamir.robust) ->
    Alcotest.fail "voting must not accept a split electorate"
  | exception Crypto.Shamir.Inconsistent_shares { agreement; required; total }
    ->
    Alcotest.(check int) "total shares" 6 total;
    Alcotest.(check int) "strict majority required" 4 required;
    Alcotest.(check bool) "agreement below the bar" true
      (agreement < required)

let test_shamir_duplicate_points () =
  (* Duplicated evaluation points are a typed rejection, not garbage:
     Lagrange through coincident x-coordinates divides by zero. *)
  let p = Lazy.force shamir_p in
  let rng = Prng.create ~seed:12 in
  let two = bn 2 in
  (match
     Crypto.Shamir.split rng ~p ~k:2 ~xs:[ Bignum.one; two; two ]
       ~secret:(bn 99)
   with
  | (_ : Crypto.Shamir.share list) ->
    Alcotest.fail "split accepted duplicate evaluation points"
  | exception Crypto.Shamir.Duplicate_points { stage; points } ->
    Alcotest.(check string) "split stage" "split" stage;
    Alcotest.(check int) "one offending point" 1 (List.length points);
    check_bn "offending point is 2" two (List.hd points));
  (* Points congruent mod p collide even when textually distinct. *)
  (match
     Crypto.Shamir.split rng ~p ~k:2
       ~xs:[ Bignum.one; Bignum.add p Bignum.one ]
       ~secret:(bn 99)
   with
  | (_ : Crypto.Shamir.share list) ->
    Alcotest.fail "split accepted points congruent mod p"
  | exception Crypto.Shamir.Duplicate_points { stage; _ } ->
    Alcotest.(check string) "congruent stage" "split" stage);
  (* Reconstruct rejects repeated share x-coordinates the same way. *)
  let xs = Crypto.Shamir.default_xs ~n:3 in
  let shares = Crypto.Shamir.split rng ~p ~k:2 ~xs ~secret:(bn 555) in
  let dup = List.hd shares :: shares in
  match Crypto.Shamir.reconstruct ~p dup with
  | (_ : Bignum.t) ->
    Alcotest.fail "reconstruct accepted duplicate shares"
  | exception Crypto.Shamir.Duplicate_points { stage; points } ->
    Alcotest.(check string) "reconstruct stage" "reconstruct" stage;
    check_bn "duplicated x reported" Bignum.one (List.hd points)

let test_shamir_threshold_sweep () =
  (* Exhaustive k-of-n property per sweep seed: EVERY k-subset of the
     shares reconstructs the secret, and EVERY (k-1)-subset misses it. *)
  let p = Lazy.force shamir_p in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + (seed mod 5) in
      let k = 1 + (seed mod n) in
      let secret = bn (1 + ((seed * 7919) mod 1_000_000)) in
      let xs = Crypto.Shamir.default_xs ~n in
      let shares = Array.of_list (Crypto.Shamir.split rng ~p ~k ~xs ~secret) in
      for mask = 1 to (1 lsl n) - 1 do
        let subset =
          List.filter_map
            (fun i -> if mask land (1 lsl i) <> 0 then Some shares.(i) else None)
            (List.init n Fun.id)
        in
        let size = List.length subset in
        if size = k then
          check_bn
            (Printf.sprintf "seed %d: %d-subset reconstructs" seed k)
            secret
            (Crypto.Shamir.reconstruct ~p subset)
        else if size = k - 1 && size > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %d-subset reveals nothing" seed (k - 1))
            false
            (Bignum.equal secret (Crypto.Shamir.reconstruct ~p subset))
      done)
    sweep_seeds

let prop_shamir_any_k_subset =
  QCheck.Test.make ~name:"any k-subset reconstructs" ~count:50
    (QCheck.triple (QCheck.int_range 1 6) (QCheck.int_range 0 1_000_000)
       (QCheck.int_range 0 1000))
    (fun (k, secret_int, seed) ->
      let p = Lazy.force shamir_p in
      let n = k + 3 in
      let rng = Prng.create ~seed in
      let xs = Crypto.Shamir.default_xs ~n in
      let secret = bn secret_int in
      let shares = Crypto.Shamir.split rng ~p ~k ~xs ~secret in
      (* Pick a pseudo-random k-subset. *)
      let idx = List.init n (fun i -> i) in
      let picked =
        List.filteri (fun pos _ -> pos < k)
          (List.sort
             (fun a b ->
               compare ((a * 7919) + seed mod 13) ((b * 7919) + seed mod 13))
             idx)
      in
      let subset = List.map (List.nth shares) picked in
      Bignum.equal secret (Crypto.Shamir.reconstruct ~p subset))

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

let acc_params =
  lazy
    (let rng = Prng.create ~seed:12 in
     Crypto.Accumulator.generate rng ~bits:128)

let test_accumulator_order_independence () =
  (* Equation (9): any permutation accumulates to the same value. *)
  let params = Lazy.force acc_params in
  let records = [ "log-1"; "log-2"; "log-3"; "log-4" ] in
  let v1 = Crypto.Accumulator.accumulate_all params records in
  let v2 = Crypto.Accumulator.accumulate_all params (List.rev records) in
  let v3 =
    Crypto.Accumulator.accumulate_all params
      [ "log-3"; "log-1"; "log-4"; "log-2" ]
  in
  check_bn "reverse order" v1 v2;
  check_bn "shuffled order" v1 v3

let test_accumulator_detects_change () =
  let params = Lazy.force acc_params in
  let v1 = Crypto.Accumulator.accumulate_all params [ "a"; "b"; "c" ] in
  let v2 = Crypto.Accumulator.accumulate_all params [ "a"; "b"; "X" ] in
  let v3 = Crypto.Accumulator.accumulate_all params [ "a"; "b" ] in
  Alcotest.(check bool) "modified record" false (Bignum.equal v1 v2);
  Alcotest.(check bool) "missing record" false (Bignum.equal v1 v3)

let test_accumulator_validation () =
  let params = Lazy.force acc_params in
  Alcotest.check_raises "y <= 0"
    (Invalid_argument "Accumulator.accumulate: y <= 0") (fun () ->
      ignore (Crypto.Accumulator.accumulate params Bignum.two ~y:Bignum.zero));
  Alcotest.check_raises "bad x0"
    (Invalid_argument "Accumulator.of_values: x0 outside (1, n)") (fun () ->
      ignore (Crypto.Accumulator.of_values ~n:(bn 35) ~x0:Bignum.one))

let prop_accumulator_permutation =
  QCheck.Test.make ~name:"accumulator is permutation-invariant" ~count:30
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) QCheck.small_printable_string)
    (fun records ->
      let params = Lazy.force acc_params in
      let sorted = List.sort compare records in
      Bignum.equal
        (Crypto.Accumulator.accumulate_all params records)
        (Crypto.Accumulator.accumulate_all params sorted))

let test_accumulator_fold_equivalence () =
  (* accumulate_all runs one fixed-base exponentiation over the product
     of hashed exponents; it must equal the naive left fold of
     accumulate_bytes — for empty, singleton and longer sets. *)
  let params = Lazy.force acc_params in
  List.iter
    (fun n ->
      let records = List.init n (Printf.sprintf "fold-%d") in
      let reference =
        List.fold_left
          (Crypto.Accumulator.accumulate_bytes params)
          params.Crypto.Accumulator.x0 records
      in
      check_bn
        (Printf.sprintf "fold of %d records" n)
        reference
        (Crypto.Accumulator.accumulate_all params records))
    [ 0; 1; 2; 7 ]

let test_accumulator_witnesses_fast_path () =
  (* The prefix/suffix witness construction (zero squarings over the
     base table) must agree with refolding the other elements, and the
     batch random-linear-combination check must accept honest witness
     sets and reject a tampered one. *)
  let params = Lazy.force acc_params in
  let records = List.init 5 (Printf.sprintf "wit-%d") in
  let total = Crypto.Accumulator.accumulate_all params records in
  let pairs = Crypto.Accumulator.witnesses params records in
  Alcotest.(check int) "one witness per record" (List.length records)
    (List.length pairs);
  List.iter
    (fun (e, w) ->
      let others = List.filter (fun e' -> e' <> e) records in
      check_bn
        (Printf.sprintf "witness(%s) = fold of others" e)
        (Crypto.Accumulator.accumulate_all params others)
        w;
      Alcotest.(check bool)
        (Printf.sprintf "witness(%s) verifies" e)
        true
        (Crypto.Accumulator.verify_membership params ~total ~witness:w e))
    pairs;
  let rng = Prng.create ~seed:27 in
  Alcotest.(check bool) "batch verify accepts honest set" true
    (Crypto.Accumulator.verify_members rng params ~total pairs);
  let tampered =
    match pairs with
    | (e, w) :: rest -> (e, Bignum.succ w) :: rest
    | [] -> assert false
  in
  Alcotest.(check bool) "batch verify rejects tampered witness" false
    (Crypto.Accumulator.verify_members rng params ~total tampered);
  Alcotest.(check bool) "batch verify rejects wrong element" false
    (Crypto.Accumulator.verify_members rng params ~total
       (match pairs with
       | (_, w) :: rest -> ("not-a-member", w) :: rest
       | [] -> assert false))

let test_accumulator_update_witness_many () =
  (* Folding a batch of insertions into a witness in one exponentiation
     equals iterating update_witness, and the updated witness verifies
     against the grown accumulator. *)
  let params = Lazy.force acc_params in
  let records = [ "base-a"; "base-b"; "base-c" ] in
  let added = [ "new-1"; "new-2"; "new-3" ] in
  let pairs = Crypto.Accumulator.witnesses params records in
  let grown_total = Crypto.Accumulator.accumulate_all params (records @ added) in
  List.iter
    (fun (e, w) ->
      let iterated =
        List.fold_left
          (fun w added -> Crypto.Accumulator.update_witness params ~witness:w ~added)
          w added
      in
      let batched =
        Crypto.Accumulator.update_witness_many params ~witness:w ~added
      in
      check_bn (Printf.sprintf "batched update of %s" e) iterated batched;
      Alcotest.(check bool)
        (Printf.sprintf "updated witness for %s verifies" e)
        true
        (Crypto.Accumulator.verify_membership params ~total:grown_total
           ~witness:batched e))
    pairs

(* ------------------------------------------------------------------ *)
(* Blinding                                                            *)
(* ------------------------------------------------------------------ *)

let test_affine_blinding_preserves_equality () =
  let rng = Prng.create ~seed:13 in
  let p = Lazy.force shamir_p in
  let blind = Crypto.Blinding.generate_affine rng ~p in
  let apply = Crypto.Blinding.apply_affine blind in
  check_bn "equal stays equal" (apply (bn 777)) (apply (bn 777));
  Alcotest.(check bool) "distinct stays distinct" false
    (Bignum.equal (apply (bn 777)) (apply (bn 778)))

let test_monotone_blinding_preserves_order () =
  let rng = Prng.create ~seed:14 in
  let blind = Crypto.Blinding.generate_monotone rng ~bits:64 in
  let apply = Crypto.Blinding.apply_monotone blind in
  let values = [ bn (-50); bn 0; bn 3; bn 1000000 ] in
  let blinded = List.map apply values in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "strictly increasing" true (Bignum.compare a b < 0);
      pairs rest
    | _ -> ()
  in
  pairs blinded

let prop_monotone_order =
  QCheck.Test.make ~name:"monotone blinding preserves order" ~count:200
    (QCheck.triple QCheck.int QCheck.int (QCheck.int_range 0 10000))
    (fun (a, b, seed) ->
      let rng = Prng.create ~seed in
      let blind = Crypto.Blinding.generate_monotone rng ~bits:32 in
      let fa = Crypto.Blinding.apply_monotone blind (bn a) in
      let fb = Crypto.Blinding.apply_monotone blind (bn b) in
      compare a b = Bignum.compare fa fb)

(* ------------------------------------------------------------------ *)
(* Commitments                                                         *)
(* ------------------------------------------------------------------ *)

let test_commitment_roundtrip () =
  let rng = Prng.create ~seed:15 in
  let c, opening = Crypto.Commitment.commit rng "service terms: store 5 attrs" in
  Alcotest.(check bool) "verifies" true (Crypto.Commitment.verify c opening);
  Alcotest.(check bool) "tampered value fails" false
    (Crypto.Commitment.verify c { opening with value = "store 6 attrs" });
  Alcotest.(check bool) "tampered nonce fails" false
    (Crypto.Commitment.verify c { opening with nonce = String.make 32 '\000' })

let test_commitment_hiding () =
  (* Same value, fresh nonce: commitments differ (hiding needs the nonce). *)
  let rng = Prng.create ~seed:16 in
  let c1, _ = Crypto.Commitment.commit rng "v" in
  let c2, _ = Crypto.Commitment.commit rng "v" in
  Alcotest.(check bool) "distinct commitments" false (Crypto.Commitment.equal c1 c2)


(* ------------------------------------------------------------------ *)
(* RSA and threshold RSA                                               *)
(* ------------------------------------------------------------------ *)

let test_rsa_sign_verify () =
  let rng = Prng.create ~seed:17 in
  let secret = Crypto.Rsa.generate rng ~bits:128 () in
  let public = Crypto.Rsa.public secret in
  let signature = Crypto.Rsa.sign secret "hello" in
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify public "hello" signature);
  Alcotest.(check bool) "wrong message" false
    (Crypto.Rsa.verify public "hullo" signature);
  Alcotest.(check bool) "tampered signature" false
    (Crypto.Rsa.verify public "hello" (Bignum.succ signature))

let test_rsa_sign_many_matches_scalar () =
  (* Batch signing shares the secret exponent's window recoding but the
     signatures are element-for-element the scalar ones. *)
  let rng = Prng.create ~seed:28 in
  let secret = Crypto.Rsa.generate rng ~bits:128 () in
  let public = Crypto.Rsa.public secret in
  List.iter
    (fun n ->
      let msgs = List.init n (Printf.sprintf "batch-msg-%d") in
      let sigs = Crypto.Rsa.sign_many secret msgs in
      List.iter2
        (fun m s ->
          check_bn (Printf.sprintf "sign_many(%s) = sign" m)
            (Crypto.Rsa.sign secret m) s;
          Alcotest.(check bool) (Printf.sprintf "%s verifies" m) true
            (Crypto.Rsa.verify public m s))
        msgs sigs)
    [ 0; 1; 4 ]

let threshold_fixture =
  lazy
    (let rng = Prng.create ~seed:18 in
     Crypto.Threshold_rsa.deal rng ~bits:128 ~k:3 ~parties:5)

let test_threshold_k_of_n () =
  let params, shares = Lazy.force threshold_fixture in
  let msg = "cluster verdict 1" in
  let partials =
    List.map (fun s -> Crypto.Threshold_rsa.partial_sign s msg) shares
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (match Crypto.Threshold_rsa.combine params msg (take 3 partials) with
  | Ok s ->
    Alcotest.(check bool) "3-of-5 verifies" true
      (Crypto.Threshold_rsa.verify params msg s)
  | Error e -> Alcotest.fail e);
  (* Any 3-subset works, and extra partials don't hurt. *)
  (match
     Crypto.Threshold_rsa.combine params msg
       [ List.nth partials 0; List.nth partials 2; List.nth partials 4 ]
   with
  | Ok s ->
    Alcotest.(check bool) "subset {1,3,5}" true
      (Crypto.Threshold_rsa.verify params msg s)
  | Error e -> Alcotest.fail e);
  match Crypto.Threshold_rsa.combine params msg partials with
  | Ok s ->
    Alcotest.(check bool) "all 5" true (Crypto.Threshold_rsa.verify params msg s)
  | Error e -> Alcotest.fail e

let test_threshold_below_k_fails () =
  let params, shares = Lazy.force threshold_fixture in
  let msg = "cluster verdict 2" in
  let partials =
    List.map (fun s -> Crypto.Threshold_rsa.partial_sign s msg) shares
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (match Crypto.Threshold_rsa.combine params msg (take 2 partials) with
  | Ok _ -> Alcotest.fail "2 partials must not combine"
  | Error _ -> ());
  (* A corrupt partial is rejected by the internal verification. *)
  let corrupt =
    { (List.hd partials) with Crypto.Threshold_rsa.value = Bignum.of_int 7 }
  in
  match
    Crypto.Threshold_rsa.combine params msg
      [ corrupt; List.nth partials 1; List.nth partials 2 ]
  with
  | Ok _ -> Alcotest.fail "corrupt partial must not combine"
  | Error _ -> ()

let test_threshold_duplicate_rejected () =
  let params, shares = Lazy.force threshold_fixture in
  let msg = "m" in
  let p0 = Crypto.Threshold_rsa.partial_sign (List.hd shares) msg in
  match Crypto.Threshold_rsa.combine params msg [ p0; p0; p0 ] with
  | Ok _ -> Alcotest.fail "duplicates must be rejected"
  | Error e -> Alcotest.(check string) "reason" "duplicate partial indices" e

let prop_threshold_any_subset =
  QCheck.Test.make ~name:"any k-subset of partials signs" ~count:10
    (QCheck.int_range 0 1000)
    (fun salt ->
      let params, shares = Lazy.force threshold_fixture in
      let msg = Printf.sprintf "stmt-%d" salt in
      let partials =
        List.map (fun s -> Crypto.Threshold_rsa.partial_sign s msg) shares
      in
      (* salt-dependent 3-subset *)
      let idx = [ salt mod 5; (salt + 1) mod 5; (salt + 3) mod 5 ] in
      let idx = List.sort_uniq compare idx in
      QCheck.assume (List.length idx = 3);
      let subset = List.map (List.nth partials) idx in
      match Crypto.Threshold_rsa.combine params msg subset with
      | Ok s -> Crypto.Threshold_rsa.verify params msg s
      | Error _ -> false)

let test_threshold_partial_sign_all_matches_scalar () =
  (* partial_sign_all digests the message once and batches the share
     exponentiations; each partial must equal the scalar call, and the
     multi-exponentiation combine must still produce a verifying
     signature from them. *)
  let params, shares = Lazy.force threshold_fixture in
  List.iter
    (fun seed ->
      let msg = Printf.sprintf "batched verdict %d" seed in
      let batched = Crypto.Threshold_rsa.partial_sign_all shares msg in
      List.iter2
        (fun share p ->
          let q = Crypto.Threshold_rsa.partial_sign share msg in
          Alcotest.(check int)
            (Printf.sprintf "seed %d index" seed)
            q.Crypto.Threshold_rsa.index p.Crypto.Threshold_rsa.index;
          check_bn
            (Printf.sprintf "seed %d partial %d" seed p.Crypto.Threshold_rsa.index)
            q.Crypto.Threshold_rsa.value p.Crypto.Threshold_rsa.value)
        shares batched;
      match Crypto.Threshold_rsa.combine params msg batched with
      | Ok s ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d combined signature verifies" seed)
          true
          (Crypto.Threshold_rsa.verify params msg s)
      | Error e -> Alcotest.fail e)
    sweep_seeds


(* ------------------------------------------------------------------ *)
(* Paillier                                                            *)
(* ------------------------------------------------------------------ *)

let paillier_fixture =
  lazy
    (let rng = Prng.create ~seed:19 in
     Crypto.Paillier.generate rng ~bits:128)

let test_paillier_roundtrip () =
  let public, secret = Lazy.force paillier_fixture in
  let rng = Prng.create ~seed:20 in
  List.iter
    (fun m ->
      let c = Crypto.Paillier.encrypt rng public (bn m) in
      check_bn (string_of_int m) (bn m) (Crypto.Paillier.decrypt public secret c))
    [ 0; 1; 42; 123456789 ]

let test_paillier_homomorphic () =
  let public, secret = Lazy.force paillier_fixture in
  let rng = Prng.create ~seed:21 in
  let c1 = Crypto.Paillier.encrypt rng public (bn 1000) in
  let c2 = Crypto.Paillier.encrypt rng public (bn 234) in
  check_bn "add" (bn 1234)
    (Crypto.Paillier.decrypt public secret (Crypto.Paillier.add public c1 c2));
  check_bn "scale" (bn 3000)
    (Crypto.Paillier.decrypt public secret
       (Crypto.Paillier.scale public c1 ~by:(bn 3)))

let test_paillier_probabilistic () =
  (* Same plaintext, fresh randomness: different ciphertexts. *)
  let public, _ = Lazy.force paillier_fixture in
  let rng = Prng.create ~seed:22 in
  let c1 = Crypto.Paillier.encrypt rng public (bn 7) in
  let c2 = Crypto.Paillier.encrypt rng public (bn 7) in
  Alcotest.(check bool) "semantically hiding" false (Bignum.equal c1 c2)

let test_paillier_domain () =
  let public, _ = Lazy.force paillier_fixture in
  let rng = Prng.create ~seed:23 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Paillier.encrypt: plaintext outside [0, n)") (fun () ->
      ignore (Crypto.Paillier.encrypt rng public (bn (-1))))

let test_paillier_closed_form () =
  (* The encrypt fast path relies on (1+n)^m = 1 + m·n (mod n²) — the
     binomial expansion collapses because n² | C(m,k)·n^k for k ≥ 2.
     Check it against the textbook exponentiation for edge and random
     messages. *)
  let public, _ = Lazy.force paillier_fixture in
  let n = public.Crypto.Paillier.n in
  let n_squared = public.Crypto.Paillier.n_squared in
  let g = Bignum.succ n in
  let rng = Prng.create ~seed:25 in
  let messages =
    Bignum.zero :: Bignum.one :: Bignum.pred n
    :: List.init 5 (fun _ -> Prng.bignum_below rng n)
  in
  List.iter
    (fun m ->
      check_bn
        (Printf.sprintf "(1+n)^%s" (Bignum.to_string m))
        (Modular.pow_classic g m ~m:n_squared)
        (Modular.normalize (Bignum.succ (Bignum.mul m n)) ~m:n_squared))
    messages

let test_paillier_crt_decrypt_sweep () =
  (* Decryption runs through the CRT split (c^λ computed mod p² and q²
     then recombined); roundtrip over swept random plaintexts pins the
     recombination against the closed-form encrypt. *)
  let public, secret = Lazy.force paillier_fixture in
  let n = public.Crypto.Paillier.n in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      List.iter
        (fun i ->
          let m = Prng.bignum_below rng n in
          let c = Crypto.Paillier.encrypt rng public m in
          check_bn (Printf.sprintf "seed %d msg %d" seed i) m
            (Crypto.Paillier.decrypt public secret c))
        [ 0; 1; 2 ])
    sweep_seeds

let test_blinding_batch_matches_scalar () =
  let rng = Prng.create ~seed:26 in
  let p = Lazy.force shamir_p in
  let affine = Crypto.Blinding.generate_affine rng ~p in
  let monotone = Crypto.Blinding.generate_monotone rng ~bits:64 in
  let values = [ bn (-9); bn 0; bn 1; bn 5000; bn 123456 ] in
  List.iter2
    (fun v w -> check_bn "affine batch" (Crypto.Blinding.apply_affine affine v) w)
    values
    (Crypto.Blinding.apply_affine_many affine values);
  List.iter2
    (fun v w ->
      check_bn "monotone batch" (Crypto.Blinding.apply_monotone monotone v) w)
    values
    (Crypto.Blinding.apply_monotone_many monotone values)

let test_paillier_encrypt_many_rng_identity () =
  (* encrypt_many draws its blinding factors in the same order as the
     scalar loop, so two PRNGs at the same seed produce byte-identical
     ciphertexts batched and unbatched — the batch path changes no wire
     bytes. *)
  let public, secret = Lazy.force paillier_fixture in
  let n = public.Crypto.Paillier.n in
  List.iter
    (fun seed ->
      let gen = Prng.create ~seed in
      let ms = List.init 5 (fun _ -> Prng.bignum_below gen n) in
      let batched =
        Crypto.Paillier.encrypt_many (Prng.create ~seed:(seed + 1)) public ms
      in
      let scalar_rng = Prng.create ~seed:(seed + 1) in
      List.iter2
        (fun m c ->
          check_bn
            (Printf.sprintf "seed %d batch = scalar bytes" seed)
            (Crypto.Paillier.encrypt scalar_rng public m)
            c;
          check_bn (Printf.sprintf "seed %d roundtrip" seed) m
            (Crypto.Paillier.decrypt public secret c))
        ms batched)
    sweep_seeds

let test_paillier_add_scaled () =
  (* The fused weighted sum (one Shamir multi-exponentiation) is
     value-identical to scale; scale; add and decrypts to the weighted
     sum — including degenerate coefficients 0 and 1. *)
  let public, secret = Lazy.force paillier_fixture in
  let n = public.Crypto.Paillier.n in
  let rng = Prng.create ~seed:29 in
  let c1 = Crypto.Paillier.encrypt rng public (bn 1000) in
  let c2 = Crypto.Paillier.encrypt rng public (bn 234) in
  List.iter
    (fun (by1, by2) ->
      let fused = Crypto.Paillier.add_scaled public c1 ~by1 c2 ~by2 in
      check_bn
        (Printf.sprintf "fused = scale/scale/add (%s,%s)" (Bignum.to_string by1)
           (Bignum.to_string by2))
        (Crypto.Paillier.add public
           (Crypto.Paillier.scale public c1 ~by:by1)
           (Crypto.Paillier.scale public c2 ~by:by2))
        fused;
      check_bn
        (Printf.sprintf "weighted sum (%s,%s)" (Bignum.to_string by1)
           (Bignum.to_string by2))
        (Modular.normalize
           (Bignum.add (Bignum.mul by1 (bn 1000)) (Bignum.mul by2 (bn 234)))
           ~m:n)
        (Crypto.Paillier.decrypt public secret fused))
    [ (bn 3, bn 7); (bn 1, bn 1); (Bignum.zero, bn 5); (bn 65537, bn 40961) ]

let prop_paillier_sum =
  QCheck.Test.make ~name:"paillier: decrypt(prod c_i) = sum m_i" ~count:20
    (QCheck.list_of_size (QCheck.Gen.int_range 2 6)
       (QCheck.int_range 0 1_000_000))
    (fun values ->
      let public, secret = Lazy.force paillier_fixture in
      let rng = Prng.create ~seed:24 in
      let cts = List.map (fun v -> Crypto.Paillier.encrypt rng public (bn v)) values in
      let folded =
        match cts with
        | first :: rest -> List.fold_left (Crypto.Paillier.add public) first rest
        | [] -> assert false
      in
      Bignum.to_int (Crypto.Paillier.decrypt public secret folded)
      = List.fold_left ( + ) 0 values)


(* ------------------------------------------------------------------ *)
(* ChaCha20 and HKDF                                                   *)
(* ------------------------------------------------------------------ *)

let hex_to_bytes h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_chacha20_rfc8439_block () =
  (* RFC 8439 §2.3.2 test vector. *)
  let key = hex_to_bytes "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex_to_bytes "000000090000004a00000000" in
  let keystream = Crypto.Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Crypto.Sha256.to_hex keystream)

let test_chacha20_rfc8439_encrypt () =
  (* RFC 8439 §2.4.2: the sunscreen plaintext. *)
  let key = hex_to_bytes "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex_to_bytes "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ciphertext = Crypto.Chacha20.encrypt ~key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Crypto.Sha256.to_hex ciphertext)

let test_chacha20_roundtrip_and_validation () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let data = "some replica fragment wire" in
  let ct = Crypto.Chacha20.encrypt ~key ~nonce data in
  Alcotest.(check string) "self-inverse" data
    (Crypto.Chacha20.encrypt ~key ~nonce ct);
  Alcotest.(check bool) "actually encrypts" false (String.equal ct data);
  Alcotest.check_raises "bad key" (Invalid_argument "Chacha20: bad key length")
    (fun () -> ignore (Crypto.Chacha20.encrypt ~key:"short" ~nonce data));
  Alcotest.check_raises "bad nonce"
    (Invalid_argument "Chacha20: bad nonce length") (fun () ->
      ignore (Crypto.Chacha20.encrypt ~key ~nonce:"short" data))

let test_hkdf_rfc5869_case1 () =
  (* RFC 5869 A.1. *)
  let ikm = String.make 22 '\x0b' in
  let salt = hex_to_bytes "000102030405060708090a0b0c" in
  let info = hex_to_bytes "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Crypto.Hkdf.extract ~salt ~ikm () in
  Alcotest.(check string) "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (Crypto.Sha256.to_hex prk);
  let okm = Crypto.Hkdf.expand ~prk ~info ~length:42 in
  Alcotest.(check string) "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Crypto.Sha256.to_hex okm)

let test_hkdf_independence () =
  let a = Crypto.Hkdf.derive ~ikm:"master" ~info:"enc:P0" ~length:32 in
  let b = Crypto.Hkdf.derive ~ikm:"master" ~info:"mac:P0" ~length:32 in
  Alcotest.(check bool) "distinct infos, distinct keys" false (String.equal a b);
  Alcotest.check_raises "too long"
    (Invalid_argument "Hkdf.expand: length out of range") (fun () ->
      ignore (Crypto.Hkdf.expand ~prk:(String.make 32 'p') ~info:"" ~length:(256 * 32)))


let test_poly1305_rfc8439 () =
  (* RFC 8439 §2.5.2. *)
  let key =
    hex_to_bytes
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
  in
  let msg = "Cryptographic Forum Research Group" in
  Alcotest.(check string) "tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Crypto.Sha256.to_hex (Crypto.Poly1305.mac ~key msg));
  Alcotest.(check bool) "verify" true
    (Crypto.Poly1305.verify ~key
       ~tag:(hex_to_bytes "a8061dc1305136c6c22b8baf0c0127a9")
       msg);
  Alcotest.(check bool) "tamper" false
    (Crypto.Poly1305.verify ~key
       ~tag:(hex_to_bytes "a8061dc1305136c6c22b8baf0c0127a9")
       (msg ^ "!"))

let test_aead_rfc8439 () =
  (* RFC 8439 §2.8.2. *)
  let key =
    hex_to_bytes
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
  in
  let nonce = hex_to_bytes "070000004041424344454647" in
  let ad = hex_to_bytes "50515253c0c1c2c3c4c5c6c7" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let sealed = Crypto.Aead.seal ~key ~nonce ~ad plaintext in
  let clen = String.length sealed - 16 in
  Alcotest.(check string) "tag" "1ae10b594f09e26a7e902ecbd0600691"
    (Crypto.Sha256.to_hex (String.sub sealed clen 16));
  Alcotest.(check string) "ciphertext head" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Crypto.Sha256.to_hex (String.sub sealed 0 16));
  (match Crypto.Aead.open_ ~key ~nonce ~ad sealed with
  | Some p -> Alcotest.(check string) "roundtrip" plaintext p
  | None -> Alcotest.fail "open failed");
  (* AD binding: a different AD must fail. *)
  Alcotest.(check bool) "ad binding" true
    (Crypto.Aead.open_ ~key ~nonce ~ad:"other" sealed = None);
  Alcotest.(check bool) "bit flip" true
    (Crypto.Aead.open_ ~key ~nonce ~ad
       (String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) sealed)
     = None)


(* ------------------------------------------------------------------ *)
(* Forward-secure log (ref [25])                                       *)
(* ------------------------------------------------------------------ *)

let test_forward_log_verify () =
  let log = Crypto.Forward_log.create ~initial_key:"k0" in
  List.iter
    (fun p -> ignore (Crypto.Forward_log.append log p))
    [ "login U1"; "read record 7"; "logout U1" ];
  Alcotest.(check bool) "verifies" true
    (Crypto.Forward_log.verify ~initial_key:"k0"
       (Crypto.Forward_log.entries log)
    = Ok ());
  Alcotest.(check bool) "wrong key fails" false
    (Crypto.Forward_log.verify ~initial_key:"nope"
       (Crypto.Forward_log.entries log)
    = Ok ())

let test_forward_log_tamper_detected () =
  let log = Crypto.Forward_log.create ~initial_key:"k0" in
  List.iter
    (fun p -> ignore (Crypto.Forward_log.append log p))
    [ "a"; "b"; "c" ];
  let entries = Crypto.Forward_log.entries log in
  (* Drop the middle entry: chain gap. *)
  let truncated = List.filteri (fun i _ -> i <> 1) entries in
  (match Crypto.Forward_log.verify ~initial_key:"k0" truncated with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deletion not detected");
  (* Drop the tail: silent truncation detection needs a trusted count;
     the chain itself verifies (documented [25] limitation), so check
     the index-based length instead. *)
  let head_only = List.filteri (fun i _ -> i < 2) entries in
  Alcotest.(check bool) "prefix still verifies (known limitation)" true
    (Crypto.Forward_log.verify ~initial_key:"k0" head_only = Ok ())

let test_forward_log_forward_security () =
  (* The attacker compromises the node after entry 2 and captures the
     *current* key; it cannot rewrite entry 1. *)
  let log = Crypto.Forward_log.create ~initial_key:"k0" in
  List.iter
    (fun p -> ignore (Crypto.Forward_log.append log p))
    [ "a"; "b"; "c" ];
  let captured = Crypto.Forward_log.current_key log in
  let entries = Crypto.Forward_log.entries log in
  let e0 = List.nth entries 0 in
  let forged =
    Crypto.Forward_log.forge_with_key ~key:captured ~index:1
      ~previous_mac:e0.Crypto.Forward_log.mac ~payload:"b-FORGED"
  in
  let tampered =
    List.mapi (fun i e -> if i = 1 then forged else e) entries
  in
  match Crypto.Forward_log.verify ~initial_key:"k0" tampered with
  | Error msg ->
    Alcotest.(check bool) msg true (String.length msg > 0)
  | Ok () -> Alcotest.fail "forgery with captured key accepted"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_fips_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_matches_oneshot;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "two domains at once" `Quick test_sha256_two_domains;
          Alcotest.test_case "HMAC RFC 4231" `Quick test_hmac_rfc4231
        ] );
      ( "pohlig-hellman",
        [ Alcotest.test_case "roundtrip" `Quick test_ph_roundtrip;
          Alcotest.test_case "commutativity (eq 6)" `Quick test_ph_commutativity;
          Alcotest.test_case "commutativity sweep" `Quick
            test_ph_commutativity_sweep;
          Alcotest.test_case "injectivity (eq 7)" `Quick
            test_ph_distinct_messages_distinct_ciphertexts;
          Alcotest.test_case "domain check" `Quick test_ph_domain_check;
          Alcotest.test_case "encode" `Quick test_ph_encode;
          Alcotest.test_case "batch = scalar" `Quick test_ph_batch_matches_scalar;
          Alcotest.test_case "resident chain = scalar chain" `Quick
            test_ph_resident_chain_matches_scalar;
          Alcotest.test_case "resident resync" `Quick test_ph_resident_resync
        ] );
      ( "modexp-paths",
        [ Alcotest.test_case "fast paths agree (sweep)" `Quick
            test_modexp_fastpath_sweep
        ] );
      ( "xor-pad",
        [ Alcotest.test_case "roundtrip+commute" `Quick test_xor_roundtrip_and_commutativity;
          Alcotest.test_case "domain check" `Quick test_xor_domain_check
        ] );
      ("schemes", [ Alcotest.test_case "both commute" `Quick test_schemes ]);
      ( "shamir",
        Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip
        :: Alcotest.test_case "too few shares" `Quick test_shamir_too_few_shares_wrong
        :: Alcotest.test_case "linearity" `Quick test_shamir_linearity
        :: Alcotest.test_case "validation" `Quick test_shamir_validation
        :: Alcotest.test_case "k = n" `Quick test_shamir_k_equals_n
        :: Alcotest.test_case "robust voting recovers and accuses" `Quick
             test_shamir_robust_recovery
        :: Alcotest.test_case "robust k = n passthrough" `Quick
             test_shamir_robust_k_equals_n
        :: Alcotest.test_case "robust split electorate is typed" `Quick
             test_shamir_robust_inconsistent
        :: Alcotest.test_case "duplicate points" `Quick
             test_shamir_duplicate_points
        :: Alcotest.test_case "threshold sweep" `Quick
             test_shamir_threshold_sweep
        :: qt [ prop_shamir_any_k_subset ] );
      ( "accumulator",
        Alcotest.test_case "order independence (eq 9)" `Quick
          test_accumulator_order_independence
        :: Alcotest.test_case "detects change" `Quick test_accumulator_detects_change
        :: Alcotest.test_case "validation" `Quick test_accumulator_validation
        :: Alcotest.test_case "fixed-base fold = naive fold" `Quick
             test_accumulator_fold_equivalence
        :: Alcotest.test_case "witness fast path" `Quick
             test_accumulator_witnesses_fast_path
        :: Alcotest.test_case "batched witness update" `Quick
             test_accumulator_update_witness_many
        :: qt [ prop_accumulator_permutation ] );
      ( "blinding",
        Alcotest.test_case "affine equality" `Quick test_affine_blinding_preserves_equality
        :: Alcotest.test_case "monotone order" `Quick test_monotone_blinding_preserves_order
        :: Alcotest.test_case "batch = scalar" `Quick
             test_blinding_batch_matches_scalar
        :: qt [ prop_monotone_order ] );
      ( "rsa",
        [ Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "sign batch = scalar" `Quick
            test_rsa_sign_many_matches_scalar
        ] );
      ( "threshold-rsa",
        Alcotest.test_case "k of n" `Quick test_threshold_k_of_n
        :: Alcotest.test_case "below k fails" `Quick test_threshold_below_k_fails
        :: Alcotest.test_case "duplicates rejected" `Quick
             test_threshold_duplicate_rejected
        :: Alcotest.test_case "partial batch = scalar" `Quick
             test_threshold_partial_sign_all_matches_scalar
        :: qt [ prop_threshold_any_subset ] );
      ( "paillier",
        Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip
        :: Alcotest.test_case "homomorphic" `Quick test_paillier_homomorphic
        :: Alcotest.test_case "probabilistic" `Quick test_paillier_probabilistic
        :: Alcotest.test_case "domain" `Quick test_paillier_domain
        :: Alcotest.test_case "closed-form encrypt" `Quick
             test_paillier_closed_form
        :: Alcotest.test_case "CRT decrypt sweep" `Quick
             test_paillier_crt_decrypt_sweep
        :: Alcotest.test_case "batch rng identity" `Quick
             test_paillier_encrypt_many_rng_identity
        :: Alcotest.test_case "fused weighted sum" `Quick
             test_paillier_add_scaled
        :: qt [ prop_paillier_sum ] );
      ( "chacha20",
        [ Alcotest.test_case "RFC 8439 block" `Quick test_chacha20_rfc8439_block;
          Alcotest.test_case "RFC 8439 encrypt" `Quick test_chacha20_rfc8439_encrypt;
          Alcotest.test_case "roundtrip" `Quick test_chacha20_roundtrip_and_validation
        ] );
      ( "poly1305-aead",
        [ Alcotest.test_case "RFC 8439 poly1305" `Quick test_poly1305_rfc8439;
          Alcotest.test_case "RFC 8439 aead" `Quick test_aead_rfc8439
        ] );
      ( "forward-log",
        [ Alcotest.test_case "verify" `Quick test_forward_log_verify;
          Alcotest.test_case "tamper detected" `Quick
            test_forward_log_tamper_detected;
          Alcotest.test_case "forward security" `Quick
            test_forward_log_forward_security
        ] );
      ( "hkdf",
        [ Alcotest.test_case "RFC 5869 case 1" `Quick test_hkdf_rfc5869_case1;
          Alcotest.test_case "key independence" `Quick test_hkdf_independence
        ] );
      ( "commitment",
        [ Alcotest.test_case "roundtrip" `Quick test_commitment_roundtrip;
          Alcotest.test_case "hiding" `Quick test_commitment_hiding
        ] )
    ]
