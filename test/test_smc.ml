(* Tests for the relaxed secure-multiparty-computation layer (paper §3).

   Correctness is checked against the naive (plaintext) implementations;
   privacy is checked against the observation ledger: the claims under
   test are of the form "node X never saw value V at Plaintext
   sensitivity". *)

open Numtheory

let bn = Bignum.of_int
let bignum_testable = Alcotest.testable Bignum.pp Bignum.equal

let p0 = Net.Node_id.Dla 0
let p1 = Net.Node_id.Dla 1
let p2 = Net.Node_id.Dla 2
let p3 = Net.Node_id.Dla 3

(* Scheme constructors and parameters live in Generators, shared with
   the spec-oracle differential suite. *)
let fresh_scheme = Generators.fresh_scheme
let xor_scheme = Generators.xor_scheme

(* ------------------------------------------------------------------ *)
(* Secure set intersection                                             *)
(* ------------------------------------------------------------------ *)

let figure4_parties =
  [ { Smc.Set_intersection.node = p1; set = [ "c"; "d"; "e" ] };
    { Smc.Set_intersection.node = p2; set = [ "d"; "e"; "f" ] };
    { Smc.Set_intersection.node = p3; set = [ "e"; "f"; "g" ] }
  ]

let test_intersection_figure4 () =
  (* The exact worked example of Figure 4: intersection is {e}. *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let result =
    Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 1) ~receiver:p1
      figure4_parties
  in
  Alcotest.(check (list string)) "S1 ∩ S2 ∩ S3 = {e}" [ "e" ]
    result.Smc.Set_intersection.intersection

let test_intersection_matches_naive () =
  let cases =
    [ ([ "a"; "b" ], [ "b"; "c" ], [ "b"; "d" ]);
      ([ "x" ], [ "y" ], [ "z" ]);
      ([ "q"; "r"; "s" ], [ "q"; "r"; "s" ], [ "q"; "r"; "s" ]);
      ([], [ "a" ], [ "a"; "b" ])
    ]
  in
  List.iteri
    (fun i (s1, s2, s3) ->
      let parties =
        [ { Smc.Set_intersection.node = p1; set = s1 };
          { Smc.Set_intersection.node = p2; set = s2 };
          { Smc.Set_intersection.node = p3; set = s3 }
        ]
      in
      let secure =
        let net = Net.Network.of_config (Net.Config.make ()) in
        (Smc.Set_intersection.run ~net ~scheme:(fresh_scheme (100 + i))
           ~receiver:p1 parties)
          .Smc.Set_intersection.intersection
      in
      let naive =
        let net = Net.Network.of_config (Net.Config.make ()) in
        Smc.Set_intersection.naive ~net ~coordinator:p1 parties
      in
      Alcotest.(check (list string)) (Printf.sprintf "case %d" i) naive secure)
    cases

let test_intersection_privacy () =
  (* P1 must not observe 'f' or 'g' (only in S2/S3) in plaintext, and P3
     must not observe 'c' (only in S1). *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 2) ~receiver:p1
      figure4_parties
  in
  let ledger = Net.Network.ledger net in
  Alcotest.(check bool) "P1 never saw g" false
    (Net.Ledger.saw_plaintext ledger ~node:p1 "g");
  Alcotest.(check bool) "P1 never saw f" false
    (Net.Ledger.saw_plaintext ledger ~node:p1 "f");
  Alcotest.(check bool) "P3 never saw c" false
    (Net.Ledger.saw_plaintext ledger ~node:p3 "c");
  (* The common element is exposed only at the authorized receiver (as an
     aggregate) and at the parties that already owned it. *)
  Alcotest.(check bool) "receiver got e as aggregate" true
    (Net.Ledger.saw ledger ~node:p1 ~sensitivity:Net.Ledger.Aggregate "e");
  ()

let test_intersection_naive_exposes_everything () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ = Smc.Set_intersection.naive ~net ~coordinator:p1 figure4_parties in
  let ledger = Net.Network.ledger net in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "coordinator saw %s" e)
        true
        (Net.Ledger.saw_plaintext ledger ~node:p1 e))
    [ "c"; "d"; "e"; "f"; "g" ]

let test_intersection_with_xor_scheme () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let result =
    Smc.Set_intersection.run ~net ~scheme:(xor_scheme 3) ~receiver:p2
      figure4_parties
  in
  Alcotest.(check (list string)) "xor scheme agrees" [ "e" ]
    result.Smc.Set_intersection.intersection

let test_intersection_resident_wire_bytes () =
  (* The Montgomery-resident ring pass must put exactly the bytes the
     scalar chain would produce on the wire, hop by hop.  Capture the
     ciphertext transcript of a run, then replay its key draws with an
     identically-seeded scheme and recompute every relay and collect
     payload through the scalar enc_many path only. *)
  let seed = 411 in
  let events = ref [] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let result =
    Smc.Proto_util.with_transcript_hook
      (fun e ->
        if e.Smc.Proto_util.sensitivity = Net.Ledger.Ciphertext then
          events := (e.Smc.Proto_util.tag, e.Smc.Proto_util.value) :: !events)
      (fun () ->
        Smc.Set_intersection.run ~net ~scheme:(fresh_scheme seed) ~receiver:p1
          figure4_parties)
  in
  let transcript = List.rev !events in
  let replay = fresh_scheme seed in
  let keypairs =
    List.map
      (fun p ->
        ( p.Smc.Set_intersection.node,
          replay.Crypto.Commutative.fresh_keypair () ))
      figure4_parties
  in
  let kp_of n =
    snd (List.find (fun (n', _) -> Net.Node_id.equal n' n) keypairs)
  in
  let ring = List.map (fun p -> p.Smc.Set_intersection.node) figure4_parties in
  let expected = ref [] in
  let state =
    ref
      (List.map
         (fun p ->
           let set = List.sort_uniq compare p.Smc.Set_intersection.set in
           let kp = kp_of p.Smc.Set_intersection.node in
           ( p.Smc.Set_intersection.node,
             p.Smc.Set_intersection.node,
             kp.Crypto.Commutative.enc_many
               (List.map replay.Crypto.Commutative.encode set) ))
         figure4_parties)
  in
  for _hop = 1 to List.length figure4_parties - 1 do
    state :=
      List.map
        (fun (origin, holder, cts) ->
          let next = Smc.Proto_util.ring_next ring holder in
          List.iter
            (fun c ->
              expected := ("intersection:relay", Bignum.to_hex c) :: !expected)
            cts;
          (origin, next, (kp_of next).Crypto.Commutative.enc_many cts))
        !state
  done;
  let final = !state in
  List.iter
    (fun (_, holder, cts) ->
      if not (Net.Node_id.equal holder p1) then
        List.iter
          (fun c ->
            expected := ("intersection:collect", Bignum.to_hex c) :: !expected)
          cts)
    final;
  Alcotest.(check (list (pair string string)))
    "wire transcript = scalar chain" (List.rev !expected) transcript;
  (* The collected fully-encrypted sets are byte-for-byte the scalar
     chain's final layer. *)
  List.iter2
    (fun (origin, _, cts) (origin', cts') ->
      Alcotest.(check bool) "origin order" true
        (Net.Node_id.equal origin origin');
      Alcotest.(check (list string)) "encrypted_by_all bytes"
        (List.map Bignum.to_hex cts)
        (List.map Bignum.to_hex cts'))
    final result.Smc.Set_intersection.encrypted_by_all

let test_intersection_validation () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Alcotest.check_raises "one party"
    (Invalid_argument "Set_intersection.run: need at least 2 parties")
    (fun () ->
      ignore
        (Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 4) ~receiver:p1
           [ { Smc.Set_intersection.node = p1; set = [ "a" ] } ]));
  Alcotest.check_raises "receiver not a party"
    (Invalid_argument "Set_intersection.run: receiver must be a party")
    (fun () ->
      ignore
        (Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 5) ~receiver:p0
           figure4_parties))

let test_intersection_partition_fault () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Net.Network.take_down net p2;
  Alcotest.(check bool) "raises Partitioned" true
    (try
       ignore
         (Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 6) ~receiver:p1
            figure4_parties);
       false
     with Net.Network.Partitioned _ -> true)

let prop_intersection_matches_naive =
  let set_gen = Generators.set_gen ~max_size:6 () in
  QCheck.Test.make ~name:"secure intersection = naive intersection" ~count:25
    (QCheck.make
       QCheck.Gen.(triple set_gen set_gen set_gen)
       ~print:(fun (a, b, c) ->
         String.concat "," a ^ " | " ^ String.concat "," b ^ " | "
         ^ String.concat "," c))
    (fun (s1, s2, s3) ->
      let parties =
        [ { Smc.Set_intersection.node = p1; set = s1 };
          { Smc.Set_intersection.node = p2; set = s2 };
          { Smc.Set_intersection.node = p3; set = s3 }
        ]
      in
      let secure =
        let net = Net.Network.of_config (Net.Config.make ()) in
        (Smc.Set_intersection.run ~net ~scheme:(xor_scheme 7) ~receiver:p1
           parties)
          .Smc.Set_intersection.intersection
      in
      let naive =
        let net = Net.Network.of_config (Net.Config.make ()) in
        Smc.Set_intersection.naive ~net ~coordinator:p1 parties
      in
      secure = naive)


let test_intersection_cardinality () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  (* The receiver is an outside observer, not a party. *)
  let count =
    Smc.Set_intersection.cardinality ~net ~scheme:(xor_scheme 60)
      ~receiver:Net.Node_id.Auditor figure4_parties
  in
  Alcotest.(check int) "|S1 ∩ S2 ∩ S3| = 1" 1 count;
  (* Size only: the receiver never learned the element. *)
  let ledger = Net.Network.ledger net in
  Alcotest.(check bool) "receiver never saw e as plaintext" false
    (Net.Ledger.saw_plaintext ledger ~node:Net.Node_id.Auditor "e");
  Alcotest.(check bool) "receiver never saw e as aggregate" false
    (Net.Ledger.saw ledger ~node:Net.Node_id.Auditor
       ~sensitivity:Net.Ledger.Aggregate "e");
  Alcotest.(check bool) "receiver got the count" true
    (Net.Ledger.saw ledger ~node:Net.Node_id.Auditor
       ~sensitivity:Net.Ledger.Aggregate "1")

let test_intersection_cardinality_matches_run () =
  List.iter
    (fun (s1, s2) ->
      let parties =
        [ { Smc.Set_intersection.node = p1; set = s1 };
          { Smc.Set_intersection.node = p2; set = s2 }
        ]
      in
      let full =
        let net = Net.Network.of_config (Net.Config.make ()) in
        List.length
          (Smc.Set_intersection.run ~net ~scheme:(xor_scheme 61) ~receiver:p1
             parties)
            .Smc.Set_intersection.intersection
      in
      let size =
        let net = Net.Network.of_config (Net.Config.make ()) in
        Smc.Set_intersection.cardinality ~net ~scheme:(xor_scheme 62)
          ~receiver:Net.Node_id.Auditor parties
      in
      Alcotest.(check int) (String.concat "," s1) full size)
    [ ([ "a"; "b"; "c" ], [ "b"; "c"; "d" ]); ([ "x" ], [ "y" ]); ([], [ "z" ]) ]

(* ------------------------------------------------------------------ *)
(* Secure set union                                                    *)
(* ------------------------------------------------------------------ *)

let union_parties =
  [ { Smc.Set_union.node = p1; set = [ "c"; "d"; "e" ] };
    { Smc.Set_union.node = p2; set = [ "d"; "e"; "f" ] };
    { Smc.Set_union.node = p3; set = [ "e"; "f"; "g" ] }
  ]

let test_union_basic () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let union =
    Smc.Set_union.run ~net ~scheme:(fresh_scheme 8)
      ~rng:(Prng.create ~seed:8) ~receiver:p1 union_parties
  in
  Alcotest.(check (list string)) "union" [ "c"; "d"; "e"; "f"; "g" ] union

let test_union_matches_naive () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let naive = Smc.Set_union.naive ~net ~coordinator:p1 union_parties in
  let net' = Net.Network.of_config (Net.Config.make ()) in
  let secure =
    Smc.Set_union.run ~net:net' ~scheme:(xor_scheme 9)
      ~rng:(Prng.create ~seed:9) ~receiver:p1 union_parties
  in
  Alcotest.(check (list string)) "agree" naive secure

let test_union_duplicates_collapse () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let union =
    Smc.Set_union.run ~net ~scheme:(xor_scheme 10)
      ~rng:(Prng.create ~seed:10) ~receiver:p2
      [ { Smc.Set_union.node = p1; set = [ "x"; "x"; "y" ] };
        { Smc.Set_union.node = p2; set = [ "y"; "x" ] }
      ]
  in
  Alcotest.(check (list string)) "dedup" [ "x"; "y" ] union

let test_union_resident_wire_bytes () =
  (* Same guard for the union's two resident rings: the encryption ring
     and the decode ring (where every party peels its layer off the
     shuffled batch in-domain).  The replay recomputes both through
     scalar enc_many/dec_many, including the receiver-side shuffle with
     an identically-seeded rng. *)
  let seed = 412 and rng_seed = 413 in
  let events = ref [] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let union =
    Smc.Proto_util.with_transcript_hook
      (fun e ->
        if e.Smc.Proto_util.sensitivity = Net.Ledger.Ciphertext then
          events := (e.Smc.Proto_util.tag, e.Smc.Proto_util.value) :: !events)
      (fun () ->
        Smc.Set_union.run ~net ~scheme:(fresh_scheme seed)
          ~rng:(Prng.create ~seed:rng_seed) ~receiver:p1 union_parties)
  in
  Alcotest.(check (list string)) "union result" [ "c"; "d"; "e"; "f"; "g" ]
    union;
  let transcript = List.rev !events in
  let replay = fresh_scheme seed in
  let keypairs =
    List.map
      (fun p -> (p.Smc.Set_union.node, replay.Crypto.Commutative.fresh_keypair ()))
      union_parties
  in
  let kp_of n =
    snd (List.find (fun (n', _) -> Net.Node_id.equal n' n) keypairs)
  in
  let ring = List.map (fun p -> p.Smc.Set_union.node) union_parties in
  let expected = ref [] in
  (* Encryption ring. *)
  let state =
    ref
      (List.map
         (fun p ->
           let set = List.sort_uniq compare p.Smc.Set_union.set in
           let kp = kp_of p.Smc.Set_union.node in
           ( p.Smc.Set_union.node,
             kp.Crypto.Commutative.enc_many
               (List.map replay.Crypto.Commutative.encode set) ))
         union_parties)
  in
  for _hop = 1 to List.length union_parties - 1 do
    state :=
      List.map
        (fun (holder, cts) ->
          let next = Smc.Proto_util.ring_next ring holder in
          List.iter
            (fun c -> expected := ("union:relay", Bignum.to_hex c) :: !expected)
            cts;
          (next, (kp_of next).Crypto.Commutative.enc_many cts))
        !state
  done;
  List.iter
    (fun (holder, cts) ->
      if not (Net.Node_id.equal holder p1) then
        List.iter
          (fun c -> expected := ("union:collect", Bignum.to_hex c) :: !expected)
          cts)
    !state;
  (* Receiver-side dedup (keyed on hex, so bindings come out sorted)
     and shuffle, then the decode ring. *)
  let distinct =
    List.fold_left
      (fun acc ct -> (Bignum.to_hex ct, ct) :: acc)
      []
      (List.concat_map snd !state)
    |> List.sort_uniq (fun (h, _) (h', _) -> compare h h')
    |> List.map snd
  in
  let shuffled = Smc.Proto_util.shuffle (Prng.create ~seed:rng_seed) distinct in
  let final_holder, decoded =
    List.fold_left
      (fun (holder, cts) next ->
        if not (Net.Node_id.equal holder next) then
          List.iter
            (fun c -> expected := ("union:decode", Bignum.to_hex c) :: !expected)
            cts;
        (next, (kp_of next).Crypto.Commutative.dec_many cts))
      (p1, shuffled) ring
  in
  (* The last peeler ships the plaintext group elements back to the
     receiver. *)
  if not (Net.Node_id.equal final_holder p1) then
    List.iter
      (fun c ->
        expected := ("union:decode-return", Bignum.to_hex c) :: !expected)
      decoded;
  Alcotest.(check (list (pair string string)))
    "wire transcript = scalar chain" (List.rev !expected) transcript

let test_union_cardinality () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let count =
    Smc.Set_union.cardinality ~net ~scheme:(xor_scheme 67)
      ~receiver:Net.Node_id.Auditor union_parties
  in
  Alcotest.(check int) "|union| = 5" 5 count;
  let ledger = Net.Network.ledger net in
  (* Size only: no union element reached the receiver in any readable
     form. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) e false
        (Net.Ledger.saw ledger ~node:Net.Node_id.Auditor
           ~sensitivity:Net.Ledger.Aggregate e))
    [ "c"; "d"; "e"; "f"; "g" ]

(* ------------------------------------------------------------------ *)
(* Secure sum                                                          *)
(* ------------------------------------------------------------------ *)

let sum_p = Generators.sum_p

let sum_parties values =
  List.mapi (fun i v -> { Smc.Sum.node = Net.Node_id.Dla i; value = bn v }) values

let test_sum_basic () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let total =
    Smc.Sum.run ~net ~rng:(Prng.create ~seed:11) ~p:(Lazy.force sum_p) ~k:3
      ~receiver:Net.Node_id.Auditor
      (sum_parties [ 10; 20; 30; 40 ])
  in
  Alcotest.check bignum_testable "sum" (bn 100) total

let test_sum_matches_naive () =
  let parties = sum_parties [ 123; 456; 789 ] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let naive = Smc.Sum.naive ~net ~coordinator:Net.Node_id.Auditor parties in
  let net' = Net.Network.of_config (Net.Config.make ()) in
  let secure =
    Smc.Sum.run ~net:net' ~rng:(Prng.create ~seed:12) ~p:(Lazy.force sum_p)
      ~k:2 ~receiver:Net.Node_id.Auditor parties
  in
  Alcotest.check bignum_testable "agree" naive secure

let test_sum_privacy () =
  let parties = sum_parties [ 111; 222; 333 ] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Sum.run ~net ~rng:(Prng.create ~seed:13) ~p:(Lazy.force sum_p) ~k:2
      ~receiver:Net.Node_id.Auditor parties
  in
  let ledger = Net.Network.ledger net in
  (* No party or the auditor ever sees a foreign input in plaintext. *)
  List.iter
    (fun v ->
      let exposure = Net.Ledger.plaintext_exposure ledger (string_of_int v) in
      Alcotest.(check int)
        (Printf.sprintf "only owner saw %d" v)
        1 (List.length exposure))
    [ 111; 222; 333 ];
  Alcotest.(check bool) "auditor got the aggregate" true
    (Net.Ledger.saw ledger ~node:Net.Node_id.Auditor
       ~sensitivity:Net.Ledger.Aggregate "666")

let test_sum_weighted () =
  let parties = sum_parties [ 10; 20; 30 ] in
  let weights =
    [ (Net.Node_id.Dla 0, bn 1); (Net.Node_id.Dla 1, bn 2); (Net.Node_id.Dla 2, bn 3) ]
  in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let total =
    Smc.Sum.run_weighted ~net ~rng:(Prng.create ~seed:14) ~p:(Lazy.force sum_p)
      ~k:2 ~receiver:Net.Node_id.Auditor ~weights parties
  in
  Alcotest.check bignum_testable "10 + 40 + 90" (bn 140) total

let test_sum_validation () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Alcotest.check_raises "bad k" (Invalid_argument "Sum: threshold k outside [1, n]")
    (fun () ->
      ignore
        (Smc.Sum.run ~net ~rng:(Prng.create ~seed:15) ~p:(Lazy.force sum_p)
           ~k:5 ~receiver:Net.Node_id.Auditor
           (sum_parties [ 1; 2 ])))

let prop_sum_matches_naive =
  QCheck.Test.make ~name:"secure sum = naive sum" ~count:30
    (QCheck.list_of_size (QCheck.Gen.int_range 2 7)
       (QCheck.int_range 0 1_000_000))
    (fun values ->
      let parties = sum_parties values in
      let k = 1 + (List.length values / 2) in
      let net = Net.Network.of_config (Net.Config.make ()) in
      let secure =
        Smc.Sum.run ~net ~rng:(Prng.create ~seed:16) ~p:(Lazy.force sum_p) ~k
          ~receiver:Net.Node_id.Auditor parties
      in
      Bignum.to_int secure = List.fold_left ( + ) 0 values)


let test_sum_ttp_coordinated () =
  let rng = Prng.create ~seed:50 in
  let public, secret = Crypto.Paillier.generate rng ~bits:128 in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let parties = sum_parties [ 11; 22; 33; 44 ] in
  let total =
    Smc.Sum.run_ttp_coordinated ~net ~rng ~public ~secret
      ~coordinator:(Net.Node_id.Ttp "agg") ~receiver:Net.Node_id.Auditor
      parties
  in
  Alcotest.check bignum_testable "total" (bn 110) total;
  (* n + 1 messages: one ciphertext per party plus the folded total. *)
  Alcotest.(check int) "messages" 5 (Net.Network.stats net).Net.Network.messages;
  (* The coordinator never saw a plaintext input. *)
  let ledger = Net.Network.ledger net in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "coordinator never saw %d" v)
        false
        (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Ttp "agg")
           (string_of_int v)))
    [ 11; 22; 33; 44 ]

let test_sum_ttp_matches_shamir () =
  let rng = Prng.create ~seed:51 in
  let public, secret = Crypto.Paillier.generate rng ~bits:128 in
  let parties = sum_parties [ 5; 10; 15 ] in
  let net1 = Net.Network.of_config (Net.Config.make ()) in
  let paillier_total =
    Smc.Sum.run_ttp_coordinated ~net:net1 ~rng ~public ~secret
      ~coordinator:(Net.Node_id.Ttp "agg") ~receiver:Net.Node_id.Auditor
      parties
  in
  let net2 = Net.Network.of_config (Net.Config.make ()) in
  let shamir_total =
    Smc.Sum.run ~net:net2 ~rng:(Prng.create ~seed:52) ~p:(Lazy.force sum_p)
      ~k:2 ~receiver:Net.Node_id.Auditor parties
  in
  Alcotest.check bignum_testable "agree" shamir_total paillier_total;
  (* And the TTP-coordinated variant is cheaper in messages. *)
  Alcotest.(check bool) "fewer messages" true
    ((Net.Network.stats net1).Net.Network.messages
    < (Net.Network.stats net2).Net.Network.messages)

(* A dealer that is down fails Σₛ at the first share addressed to it,
   naming the unreachable party; the receiver learns nothing. *)
let test_sum_dealer_down () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Net.Network.take_down net (Net.Node_id.Dla 2);
  match
    Smc.Sum.run ~net ~rng:(Prng.create ~seed:17) ~p:(Lazy.force sum_p) ~k:3
      ~receiver:Net.Node_id.Auditor
      (sum_parties [ 1; 2; 3; 4 ])
  with
  | _ -> Alcotest.fail "sum completed without P2's shares"
  | exception Net.Network.Partitioned { dst; _ } ->
    Alcotest.(check string) "unreachable dealer" "P2"
      (Net.Node_id.to_string dst);
    Alcotest.(check int) "receiver saw nothing" 0
      (List.length
         (Net.Ledger.observations (Net.Network.ledger net)
            ~node:Net.Node_id.Auditor))

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let ttp = Net.Node_id.Ttp "cmp"

let test_equality_via_ttp () =
  let p = Lazy.force sum_p in
  let run l r seed =
    let net = Net.Network.of_config (Net.Config.make ()) in
    Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed) ~p ~ttp
      ~left:(p1, bn l) ~right:(p2, bn r)
  in
  Alcotest.(check bool) "equal" true (run 42 42 17);
  Alcotest.(check bool) "unequal" false (run 42 43 18);
  Alcotest.(check bool) "zero equal" true (run 0 0 19)

let test_equality_ttp_privacy () =
  let p = Lazy.force sum_p in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed:20) ~p ~ttp
      ~left:(p1, bn 987654) ~right:(p2, bn 987654)
  in
  let ledger = Net.Network.ledger net in
  Alcotest.(check bool) "TTP never saw the value" false
    (Net.Ledger.saw_plaintext ledger ~node:ttp "987654")

let test_equality_via_intersection () =
  let run l r seed =
    let net = Net.Network.of_config (Net.Config.make ()) in
    Smc.Equality.via_intersection ~net ~scheme:(fresh_scheme seed)
      ~left:(p1, l) ~right:(p2, r)
  in
  Alcotest.(check bool) "equal" true (run "T1100265" "T1100265" 21);
  Alcotest.(check bool) "unequal" false (run "T1100265" "T1100267" 22)


let test_equality_via_mapping_table () =
  let domain = [ "UDP"; "TCP"; "ICMP"; "SCTP" ] in
  let run l r seed =
    let net = Net.Network.of_config (Net.Config.make ()) in
    Smc.Equality.via_mapping_table ~net ~rng:(Prng.create ~seed) ~ttp ~domain
      ~left:(p1, l) ~right:(p2, r)
  in
  Alcotest.(check bool) "equal" true (run "TCP" "TCP" 63);
  Alcotest.(check bool) "unequal" false (run "TCP" "UDP" 64);
  (* Outside the agreed domain is a usage error. *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  Alcotest.check_raises "outside domain"
    (Invalid_argument "Equality.via_mapping_table: value outside domain")
    (fun () ->
      ignore
        (Smc.Equality.via_mapping_table ~net ~rng:(Prng.create ~seed:65) ~ttp
           ~domain ~left:(p1, "HTTP") ~right:(p2, "TCP")))

let test_equality_mapping_table_privacy () =
  (* The TTP sees neither the values nor even their stable indices: the
     permutation is fresh per run. *)
  let domain = [ "a"; "b"; "c" ] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Equality.via_mapping_table ~net ~rng:(Prng.create ~seed:66) ~ttp
      ~domain ~left:(p1, "b") ~right:(p2, "b")
  in
  let ledger = Net.Network.ledger net in
  Alcotest.(check bool) "TTP never saw b" false
    (Net.Ledger.saw_plaintext ledger ~node:ttp "b")

let test_equality_affine_domain_edges () =
  (* The affine map must behave at the ends of [0, p): zero, p-1, and
     the mixed pair all compare correctly, and p itself is rejected. *)
  let p = Lazy.force sum_p in
  let pm1 = Bignum.sub p Bignum.one in
  let run l r seed =
    let net = Net.Network.of_config (Net.Config.make ()) in
    Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed) ~p ~ttp ~left:(p1, l)
      ~right:(p2, r)
  in
  Alcotest.(check bool) "zero = zero" true (run Bignum.zero Bignum.zero 70);
  Alcotest.(check bool) "p-1 = p-1" true (run pm1 pm1 71);
  Alcotest.(check bool) "zero <> p-1" false (run Bignum.zero pm1 72);
  Alcotest.(check bool) "p-1 <> zero" false (run pm1 Bignum.zero 73);
  let net = Net.Network.of_config (Net.Config.make ()) in
  Alcotest.check_raises "value = p rejected"
    (Invalid_argument "Equality.via_ttp: value outside [0, p)") (fun () ->
      ignore
        (Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed:74) ~p ~ttp
           ~left:(p1, p) ~right:(p2, Bignum.zero)))

let test_equality_blinded_no_collision () =
  (* The agreed map is an affine bijection on [0, p): distinct inputs
     must land on distinct blinded images at the TTP (otherwise the TTP
     would report a false "equal"), and equal inputs must collide.
     Swept over seeds at the domain edges, where a buggy reduction is
     likeliest to wrap two values onto one image. *)
  let p = Lazy.force sum_p in
  let pm1 = Bignum.sub p Bignum.one in
  let blinded_at_ttp l r seed =
    let captured = ref [] in
    let verdict =
      Smc.Proto_util.with_transcript_hook
        (fun ev ->
          if String.equal ev.Smc.Proto_util.tag "equality:blinded" then
            captured := ev.Smc.Proto_util.value :: !captured)
        (fun () ->
          let net = Net.Network.of_config (Net.Config.make ()) in
          Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed) ~p ~ttp
            ~left:(p1, l) ~right:(p2, r))
    in
    (verdict, List.rev !captured)
  in
  List.iter
    (fun seed ->
      (match blinded_at_ttp Bignum.zero pm1 seed with
      | false, [ a; b ] ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: distinct inputs, distinct images" seed)
          false (String.equal a b)
      | true, _ -> Alcotest.fail "0 and p-1 reported equal"
      | _, _ -> Alcotest.fail "expected exactly two blinded observations");
      match blinded_at_ttp pm1 pm1 seed with
      | true, [ a; b ] ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: equal inputs, equal images" seed)
          a b
      | false, _ -> Alcotest.fail "p-1 and p-1 reported unequal"
      | _, _ -> Alcotest.fail "expected exactly two blinded observations")
    Generators.sweep_seeds

(* ------------------------------------------------------------------ *)
(* Proto_util                                                          *)
(* ------------------------------------------------------------------ *)

let test_ring_next () =
  let ring = Net.Node_id.dla_ring 3 in
  let next node = Net.Node_id.to_string (Smc.Proto_util.ring_next ring node) in
  Alcotest.(check string) "successor" "P1" (next (Net.Node_id.Dla 0));
  Alcotest.(check string) "wrap to head" "P0" (next (Net.Node_id.Dla 2));
  Alcotest.check_raises "not in ring"
    (Invalid_argument "Proto_util.ring_next: node not in ring") (fun () ->
      ignore (Smc.Proto_util.ring_next ring (Net.Node_id.Dla 9)));
  Alcotest.check_raises "empty ring"
    (Invalid_argument "Proto_util.ring_next: empty ring") (fun () ->
      ignore (Smc.Proto_util.ring_next [] (Net.Node_id.Dla 0)))

let test_shuffle_preserves_multiset () =
  List.iter
    (fun seed ->
      let items = List.init 17 (fun i -> i mod 7) in
      let shuffled = Smc.Proto_util.shuffle (Prng.create ~seed) items in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: same multiset" seed)
        (List.sort compare items)
        (List.sort compare shuffled);
      (* Same seed, same permutation: failures replay. *)
      let again = Smc.Proto_util.shuffle (Prng.create ~seed) items in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: deterministic" seed)
        shuffled again)
    Generators.sweep_seeds

let test_bignum_wire_size_edges () =
  let size = Smc.Proto_util.bignum_wire_size in
  Alcotest.(check int) "zero is empty" 0 (size Bignum.zero);
  Alcotest.(check int) "one byte" 1 (size (bn 1));
  Alcotest.(check int) "255 fits one byte" 1 (size (bn 255));
  Alcotest.(check int) "256 needs two" 2 (size (bn 256));
  Alcotest.(check int) "2^61-1 needs eight" 8 (size (Lazy.force sum_p));
  Alcotest.(check int) "sign ignored: -1" 1 (size (bn (-1)));
  Alcotest.(check int) "sign ignored: -256" 2 (size (bn (-256)));
  List.iter
    (fun v ->
      Alcotest.(check int) (Bignum.to_string v)
        (String.length (Bignum.to_bytes_be (Bignum.abs v)))
        (size v))
    (Generators.cases ~seed:(Generators.qcheck_seed ()) ~count:300
       Generators.wide_bignum_gen)

let test_observe_phase_and_hook_nesting () =
  (* [observe] stamps events with the open span path and mirrors to the
     innermost installed hook only; exiting a [with_transcript_hook]
     restores the previous hook (or none). *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let outer = ref [] and inner = ref [] in
  let values events = List.rev_map (fun ev -> ev.Smc.Proto_util.value) events in
  let say value =
    Smc.Proto_util.observe net ~node:p1 ~sensitivity:Net.Ledger.Metadata
      ~tag:"hook-test" value
  in
  Smc.Proto_util.with_transcript_hook
    (fun ev -> outer := ev :: !outer)
    (fun () ->
      Smc.Proto_util.span net "hook-test-span" (fun () ->
          say "before";
          Smc.Proto_util.with_transcript_hook
            (fun ev -> inner := ev :: !inner)
            (fun () -> say "nested");
          say "after"));
  say "outside";
  Alcotest.(check (list string))
    "outer hook saw only its extent (innermost wins while nested)"
    [ "before"; "after" ] (values !outer);
  Alcotest.(check (list string)) "inner hook saw the nested event"
    [ "nested" ] (values !inner);
  List.iter
    (fun ev ->
      Alcotest.(check (list string))
        "phase is the open span path"
        [ "hook-test-span" ] ev.Smc.Proto_util.phase)
    (!outer @ !inner);
  (* Every observation — hooked or not — still lands in the ledger. *)
  let ledger = Net.Network.ledger net in
  List.iter
    (fun value ->
      Alcotest.(check bool)
        (Printf.sprintf "%S in ledger" value)
        true
        (Net.Ledger.saw ledger ~node:p1 ~sensitivity:Net.Ledger.Metadata value))
    [ "before"; "nested"; "after"; "outside" ]

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)
(* ------------------------------------------------------------------ *)

let ranking_parties values =
  List.mapi
    (fun i v -> { Smc.Ranking.node = Net.Node_id.Dla i; value = bn v })
    values

let test_ranking_basic () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let verdict =
    Smc.Ranking.run ~net ~rng:(Prng.create ~seed:23) ~ttp
      (ranking_parties [ 30; 10; 20 ])
  in
  Alcotest.(check string) "max holder" "P0"
    (Net.Node_id.to_string verdict.Smc.Ranking.max_holder);
  Alcotest.(check string) "min holder" "P1"
    (Net.Node_id.to_string verdict.Smc.Ranking.min_holder);
  let rank_of node =
    List.assoc node verdict.Smc.Ranking.ranks
  in
  Alcotest.(check int) "rank P0" 3 (rank_of p0);
  Alcotest.(check int) "rank P1" 1 (rank_of p1);
  Alcotest.(check int) "rank P2" 2 (rank_of p2)

let test_ranking_ties () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let verdict =
    Smc.Ranking.run ~net ~rng:(Prng.create ~seed:24) ~ttp
      (ranking_parties [ 5; 5; 1 ])
  in
  let rank_of node = List.assoc node verdict.Smc.Ranking.ranks in
  Alcotest.(check int) "tied ranks equal" (rank_of p0) (rank_of p1);
  Alcotest.(check int) "min rank 1" 1 (rank_of p2)

let test_ranking_matches_naive () =
  let parties = ranking_parties [ 17; 93; 2; 55 ] in
  let net = Net.Network.of_config (Net.Config.make ()) in
  let secure = Smc.Ranking.run ~net ~rng:(Prng.create ~seed:25) ~ttp parties in
  let net' = Net.Network.of_config (Net.Config.make ()) in
  let naive = Smc.Ranking.naive ~net:net' ~coordinator:ttp parties in
  Alcotest.(check bool) "max agrees" true
    (Net.Node_id.equal secure.Smc.Ranking.max_holder naive.Smc.Ranking.max_holder);
  Alcotest.(check bool) "min agrees" true
    (Net.Node_id.equal secure.Smc.Ranking.min_holder naive.Smc.Ranking.min_holder);
  Alcotest.(check bool) "ranks agree" true
    (secure.Smc.Ranking.ranks = naive.Smc.Ranking.ranks)

let test_ranking_ttp_privacy () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Ranking.run ~net ~rng:(Prng.create ~seed:26) ~ttp
      (ranking_parties [ 1234; 5678 ])
  in
  let ledger = Net.Network.ledger net in
  Alcotest.(check bool) "TTP never saw 1234" false
    (Net.Ledger.saw_plaintext ledger ~node:ttp "1234");
  Alcotest.(check bool) "TTP never saw 5678" false
    (Net.Ledger.saw_plaintext ledger ~node:ttp "5678")

let test_comparisons () =
  let run l r seed =
    let net = Net.Network.of_config (Net.Config.make ()) in
    Smc.Ranking.comparisons ~net ~rng:(Prng.create ~seed) ~ttp
      ~left:(p1, bn l) ~right:(p2, bn r)
  in
  Alcotest.(check int) "lt" (-1) (run 3 9 27);
  Alcotest.(check int) "gt" 1 (run 9 3 28);
  Alcotest.(check int) "eq" 0 (run 7 7 29)

let prop_ranking_matches_sort =
  QCheck.Test.make ~name:"ranking verdict matches plain sort" ~count:30
    (QCheck.list_of_size (QCheck.Gen.int_range 2 8) (QCheck.int_range 0 1000))
    (fun values ->
      let parties = ranking_parties values in
      let net = Net.Network.of_config (Net.Config.make ()) in
      let verdict =
        Smc.Ranking.run ~net ~rng:(Prng.create ~seed:30) ~ttp parties
      in
      let max_v = List.fold_left max (List.hd values) values in
      let min_v = List.fold_left min (List.hd values) values in
      let holder_value node =
        (List.find (fun party -> Net.Node_id.equal party.Smc.Ranking.node node) parties)
          .Smc.Ranking.value
      in
      Bignum.to_int (holder_value verdict.Smc.Ranking.max_holder) = max_v
      && Bignum.to_int (holder_value verdict.Smc.Ranking.min_holder) = min_v)

(* ------------------------------------------------------------------ *)
(* Millionaire protocol (ref [10])                                     *)
(* ------------------------------------------------------------------ *)

let test_millionaire_exhaustive_small_domain () =
  (* Every (i, j) pair in a small domain must compare correctly. *)
  let domain = 5 in
  for i = 1 to domain do
    for j = 1 to domain do
      let verdict =
        let net = Net.Network.of_config (Net.Config.make ()) in
        Smc.Millionaire.run ~net ~rng:(Prng.create ~seed:((i * 10) + j))
          ~bits:128 ~domain ~alice:(p1, i) ~bob:(p2, j) ()
      in
      Alcotest.(check bool) (Printf.sprintf "i=%d j=%d" i j) (i >= j) verdict
    done
  done

let test_millionaire_privacy () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Millionaire.run ~net ~rng:(Prng.create ~seed:90) ~bits:128 ~domain:16
      ~alice:(p1, 11) ~bob:(p2, 7) ()
  in
  let ledger = Net.Network.ledger net in
  (* Alice never saw Bob's wealth; Bob never saw Alice's. *)
  Alcotest.(check bool) "alice never saw 7" false
    (Net.Ledger.saw_plaintext ledger ~node:p1 "7");
  Alcotest.(check bool) "bob never saw 11" false
    (Net.Ledger.saw_plaintext ledger ~node:p2 "11")

let test_millionaire_validation () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Alcotest.check_raises "wealth outside domain"
    (Invalid_argument "Millionaire.run: wealth outside [1, domain]") (fun () ->
      ignore
        (Smc.Millionaire.run ~net ~rng:(Prng.create ~seed:91) ~domain:4
           ~alice:(p1, 5) ~bob:(p2, 1) ()))

let test_millionaire_vs_blinded_ttp_cost () =
  (* The cited classical protocol costs O(domain) crypto + transfer per
     comparison; the paper's relaxed blinded comparison is O(1). *)
  let mill_net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Millionaire.run ~net:mill_net ~rng:(Prng.create ~seed:92) ~bits:128
      ~domain:32 ~alice:(p1, 20) ~bob:(p2, 9) ()
  in
  let ttp_net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Ranking.comparisons ~net:ttp_net ~rng:(Prng.create ~seed:93) ~ttp
      ~left:(p1, bn 20) ~right:(p2, bn 9)
  in
  let mill_bytes = (Net.Network.stats mill_net).Net.Network.bytes in
  let ttp_bytes = (Net.Network.stats ttp_net).Net.Network.bytes in
  Alcotest.(check bool)
    (Printf.sprintf "millionaire %dB > 5x blinded-ttp %dB" mill_bytes ttp_bytes)
    true
    (mill_bytes > 5 * ttp_bytes)

(* ------------------------------------------------------------------ *)
(* Circuit baseline                                                    *)
(* ------------------------------------------------------------------ *)

let test_circuit_sum_correct () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let parties =
    List.mapi
      (fun i v -> { Smc.Circuit_baseline.node = Net.Node_id.Dla i; value = bn v })
      [ 5; 9; 12 ]
  in
  let total =
    Smc.Circuit_baseline.secure_sum ~net ~rng:(Prng.create ~seed:31)
      ~dealer:(Net.Node_id.Ttp "dealer") ~receiver:Net.Node_id.Auditor
      ~width:8 parties
  in
  Alcotest.check bignum_testable "sum" (bn 26) total

let test_circuit_sum_wraps () =
  (* Modulo 2^width, like a hardware adder. *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let parties =
    List.mapi
      (fun i v -> { Smc.Circuit_baseline.node = Net.Node_id.Dla i; value = bn v })
      [ 200; 100 ]
  in
  let total =
    Smc.Circuit_baseline.secure_sum ~net ~rng:(Prng.create ~seed:32)
      ~dealer:(Net.Node_id.Ttp "dealer") ~receiver:Net.Node_id.Auditor
      ~width:8 parties
  in
  Alcotest.check bignum_testable "(200+100) mod 256" (bn 44) total

let test_circuit_cost_dominates_shamir () =
  (* The quantitative form of the paper's "too costly" claim. *)
  let parties_vals = [ 10; 20; 30; 40 ] in
  let circuit_net = Net.Network.of_config (Net.Config.make ()) in
  let parties =
    List.mapi
      (fun i v -> { Smc.Circuit_baseline.node = Net.Node_id.Dla i; value = bn v })
      parties_vals
  in
  let _ =
    Smc.Circuit_baseline.secure_sum ~net:circuit_net
      ~rng:(Prng.create ~seed:33) ~dealer:(Net.Node_id.Ttp "dealer")
      ~receiver:Net.Node_id.Auditor ~width:16 parties
  in
  let shamir_net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Sum.run ~net:shamir_net ~rng:(Prng.create ~seed:34)
      ~p:(Lazy.force sum_p) ~k:3 ~receiver:Net.Node_id.Auditor
      (sum_parties parties_vals)
  in
  let circuit_msgs = (Net.Network.stats circuit_net).Net.Network.messages in
  let shamir_msgs = (Net.Network.stats shamir_net).Net.Network.messages in
  Alcotest.(check bool)
    (Printf.sprintf "circuit (%d) > 10x shamir (%d)" circuit_msgs shamir_msgs)
    true
    (circuit_msgs > 10 * shamir_msgs)

let prop_circuit_sum_correct =
  QCheck.Test.make ~name:"circuit sum = plain sum mod 2^w" ~count:10
    (QCheck.list_of_size (QCheck.Gen.int_range 2 4) (QCheck.int_range 0 255))
    (fun values ->
      let net = Net.Network.of_config (Net.Config.make ()) in
      let parties =
        List.mapi
          (fun i v ->
            { Smc.Circuit_baseline.node = Net.Node_id.Dla i; value = bn v })
          values
      in
      let total =
        Smc.Circuit_baseline.secure_sum ~net ~rng:(Prng.create ~seed:35)
          ~dealer:(Net.Node_id.Ttp "dealer") ~receiver:Net.Node_id.Auditor
          ~width:10 parties
      in
      Bignum.to_int total = List.fold_left ( + ) 0 values mod 1024)

(* ------------------------------------------------------------------ *)
(* Network bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let test_stats_accounting () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let _ =
    Smc.Sum.run ~net ~rng:(Prng.create ~seed:36) ~p:(Lazy.force sum_p) ~k:2
      ~receiver:Net.Node_id.Auditor
      (sum_parties [ 1; 2; 3 ])
  in
  let stats = Net.Network.stats net in
  (* 3 parties: 6 cross-party share messages + 2 aggregate forwards. *)
  Alcotest.(check int) "messages" 8 stats.Net.Network.messages;
  Alcotest.(check bool) "bytes accounted" true (stats.Net.Network.bytes > 0);
  Alcotest.(check bool) "rounds advanced" true (stats.Net.Network.rounds >= 2);
  Net.Network.reset_stats net;
  Alcotest.(check int) "reset" 0 (Net.Network.stats net).Net.Network.messages

let test_batch_encryption_byte_identical () =
  (* Regression guard for the batch ring-encryption rewrite: enc_many /
     dec_many must be byte-for-byte the same ciphertexts as the scalar
     enc/dec the ring passes used before — under both schemes, so a
     future fast path cannot silently change wire bytes. *)
  List.iter
    (fun (name, scheme) ->
      let open Crypto.Commutative in
      let kp = scheme.fresh_keypair () in
      let ms =
        List.map scheme.encode
          [ "e"; "f"; "g"; "a-longer-element"; ""; "e" (* duplicate *) ]
      in
      let batch = kp.enc_many ms in
      List.iter2
        (fun m c ->
          Alcotest.(check string)
            (name ^ ": batch ciphertext bytes")
            (Bignum.to_hex (kp.enc m))
            (Bignum.to_hex c))
        ms batch;
      List.iter2
        (fun m m' ->
          Alcotest.(check string)
            (name ^ ": batch decrypt bytes")
            (Bignum.to_hex m) (Bignum.to_hex m'))
        ms
        (kp.dec_many batch))
    [ ("pohlig-hellman", fresh_scheme 91); ("xor-pad", xor_scheme 92) ]

let test_batch_protocol_transcript_identical () =
  (* Protocol level: the ∩ₛ result and every counted message must be
     unchanged by batching — same scheme seed, same parties, compare
     against the recorded Figure-4 expectations. *)
  let net = Net.Network.of_config (Net.Config.make ()) in
  let result =
    Smc.Set_intersection.run ~net ~scheme:(fresh_scheme 1) ~receiver:p1
      figure4_parties
  in
  Alcotest.(check (list string)) "figure 4 under batch API" [ "e" ]
    result.Smc.Set_intersection.intersection;
  let stats = Net.Network.stats net in
  Alcotest.(check int) "messages" 8 stats.Net.Network.messages

let test_loss_injection () =
  (* With heavy loss, ring protocols must fail loudly, never silently. *)
  let net = Net.Network.of_config (Net.Config.make ~seed:37 ~loss_rate:0.9 ()) in
  Alcotest.(check bool) "raises Partitioned under loss" true
    (try
       ignore
         (Smc.Set_intersection.run ~net ~scheme:(xor_scheme 38) ~receiver:p1
            figure4_parties);
       (* Improbable but possible: all messages got through. *)
       true
     with Net.Network.Partitioned _ -> true)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "smc"
    [ ( "intersection",
        Alcotest.test_case "figure 4 example" `Quick test_intersection_figure4
        :: Alcotest.test_case "matches naive" `Quick test_intersection_matches_naive
        :: Alcotest.test_case "privacy ledger" `Quick test_intersection_privacy
        :: Alcotest.test_case "naive exposes all" `Quick
             test_intersection_naive_exposes_everything
        :: Alcotest.test_case "xor scheme" `Quick test_intersection_with_xor_scheme
        :: Alcotest.test_case "resident wire bytes" `Quick
             test_intersection_resident_wire_bytes
        :: Alcotest.test_case "validation" `Quick test_intersection_validation
        :: Alcotest.test_case "partition fault" `Quick test_intersection_partition_fault
        :: Alcotest.test_case "cardinality only" `Quick test_intersection_cardinality
        :: Alcotest.test_case "cardinality = |run|" `Quick
             test_intersection_cardinality_matches_run
        :: qt [ prop_intersection_matches_naive ] );
      ( "union",
        [ Alcotest.test_case "basic" `Quick test_union_basic;
          Alcotest.test_case "matches naive" `Quick test_union_matches_naive;
          Alcotest.test_case "duplicates collapse" `Quick test_union_duplicates_collapse;
          Alcotest.test_case "resident wire bytes" `Quick
            test_union_resident_wire_bytes;
          Alcotest.test_case "cardinality only" `Quick test_union_cardinality
        ] );
      ( "sum",
        Alcotest.test_case "basic" `Quick test_sum_basic
        :: Alcotest.test_case "matches naive" `Quick test_sum_matches_naive
        :: Alcotest.test_case "privacy" `Quick test_sum_privacy
        :: Alcotest.test_case "weighted" `Quick test_sum_weighted
        :: Alcotest.test_case "validation" `Quick test_sum_validation
        :: Alcotest.test_case "ttp coordinated" `Quick test_sum_ttp_coordinated
        :: Alcotest.test_case "ttp matches shamir" `Quick test_sum_ttp_matches_shamir
        :: qt [ prop_sum_matches_naive ] );
      ( "sum-dealer-offline",
        [ Alcotest.test_case "fails loudly" `Quick test_sum_dealer_down ] );
      ( "equality",
        [ Alcotest.test_case "via ttp" `Quick test_equality_via_ttp;
          Alcotest.test_case "ttp privacy" `Quick test_equality_ttp_privacy;
          Alcotest.test_case "via intersection" `Quick test_equality_via_intersection;
          Alcotest.test_case "via mapping table" `Quick test_equality_via_mapping_table;
          Alcotest.test_case "mapping table privacy" `Quick
            test_equality_mapping_table_privacy;
          Alcotest.test_case "affine domain edges" `Quick
            test_equality_affine_domain_edges;
          Alcotest.test_case "blinded collision-freedom" `Quick
            test_equality_blinded_no_collision
        ] );
      ( "proto-util",
        [ Alcotest.test_case "ring next" `Quick test_ring_next;
          Alcotest.test_case "shuffle preserves multiset" `Quick
            test_shuffle_preserves_multiset;
          Alcotest.test_case "wire size edges" `Quick
            test_bignum_wire_size_edges;
          Alcotest.test_case "observe phases and hook nesting" `Quick
            test_observe_phase_and_hook_nesting
        ] );
      ( "ranking",
        Alcotest.test_case "basic" `Quick test_ranking_basic
        :: Alcotest.test_case "ties" `Quick test_ranking_ties
        :: Alcotest.test_case "matches naive" `Quick test_ranking_matches_naive
        :: Alcotest.test_case "ttp privacy" `Quick test_ranking_ttp_privacy
        :: Alcotest.test_case "comparisons" `Quick test_comparisons
        :: qt [ prop_ranking_matches_sort ] );
      ( "millionaire",
        [ Alcotest.test_case "exhaustive small domain" `Slow
            test_millionaire_exhaustive_small_domain;
          Alcotest.test_case "privacy" `Quick test_millionaire_privacy;
          Alcotest.test_case "validation" `Quick test_millionaire_validation;
          Alcotest.test_case "cost vs blinded ttp" `Quick
            test_millionaire_vs_blinded_ttp_cost
        ] );
      ( "circuit-baseline",
        Alcotest.test_case "correct" `Quick test_circuit_sum_correct
        :: Alcotest.test_case "wraps mod 2^w" `Quick test_circuit_sum_wraps
        :: Alcotest.test_case "cost >> shamir" `Quick test_circuit_cost_dominates_shamir
        :: qt [ prop_circuit_sum_correct ] );
      ( "batching",
        [ Alcotest.test_case "ciphertext bytes identical" `Quick
            test_batch_encryption_byte_identical;
          Alcotest.test_case "protocol transcript identical" `Quick
            test_batch_protocol_transcript_identical
        ] );
      ( "network",
        [ Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "loss injection" `Quick test_loss_injection
        ] )
    ]
