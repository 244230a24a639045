(* Tests for the arbitrary-precision substrate: unit vectors plus
   randomized cross-checks against native [int] arithmetic and algebraic
   identities (the only oracle available at sizes beyond 62 bits). *)

open Numtheory

let bn = Bignum.of_int
let bs = Bignum.of_string

let bignum_testable = Alcotest.testable Bignum.pp Bignum.equal

let check_bn msg expected actual = Alcotest.check bignum_testable msg expected actual

(* ------------------------------------------------------------------ *)
(* Bignum unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Bignum.to_int (bn n)))
    [ 0; 1; -1; 42; -42; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 1 lsl 52;
      max_int; min_int + 1; min_int ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Bignum.to_string (bs s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-987654321098765432109876543210";
      "100000000000000000000000000000000000001" ]

let test_hex_roundtrip () =
  List.iter
    (fun h -> Alcotest.(check string) h h (Bignum.to_hex (Bignum.of_hex h)))
    [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ];
  Alcotest.(check string) "negative" "-ff" (Bignum.to_hex (bn (-255)));
  check_bn "0x parse" (bn 255) (bs "0xff");
  check_bn "hex/dec agree" (bs "4277009102") (Bignum.of_hex "feedface")

let test_add_sub_small () =
  check_bn "2+3" (bn 5) (Bignum.add (bn 2) (bn 3));
  check_bn "2-3" (bn (-1)) (Bignum.sub (bn 2) (bn 3));
  check_bn "neg+neg" (bn (-10)) (Bignum.add (bn (-4)) (bn (-6)));
  check_bn "carry chain"
    (bs "18446744073709551616")
    (Bignum.add (bs "18446744073709551615") Bignum.one)

let test_mul_known () =
  check_bn "small" (bn 391) (Bignum.mul (bn 17) (bn 23));
  check_bn "sign" (bn (-391)) (Bignum.mul (bn (-17)) (bn 23));
  check_bn "big square"
    (bs "15241578753238836750495351562536198787501905199875019052100")
    (Bignum.mul (bs "123456789012345678901234567890") (bs "123456789012345678901234567890"))

let test_div_rem_known () =
  let q, r = Bignum.div_rem (bn 17) (bn 5) in
  check_bn "17/5 q" (bn 3) q;
  check_bn "17/5 r" (bn 2) r;
  let q, r = Bignum.div_rem (bn (-17)) (bn 5) in
  check_bn "-17/5 q (truncated)" (bn (-3)) q;
  check_bn "-17/5 r (sign of dividend)" (bn (-2)) r;
  check_bn "-17 erem 5" (bn 3) (Bignum.erem (bn (-17)) (bn 5));
  let big = bs "123456789012345678901234567890123456789" in
  let d = bs "9876543210987654321" in
  let q, r = Bignum.div_rem big d in
  check_bn "reconstruct" big (Bignum.add (Bignum.mul q d) r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.div_rem Bignum.one Bignum.zero))

let test_pow () =
  check_bn "2^10" (bn 1024) (Bignum.pow Bignum.two 10);
  check_bn "3^0" Bignum.one (Bignum.pow (bn 3) 0);
  check_bn "10^30" (bs "1000000000000000000000000000000") (Bignum.pow (bn 10) 30)

let test_bits () =
  Alcotest.(check int) "num_bits 0" 0 (Bignum.num_bits Bignum.zero);
  Alcotest.(check int) "num_bits 1" 1 (Bignum.num_bits Bignum.one);
  Alcotest.(check int) "num_bits 255" 8 (Bignum.num_bits (bn 255));
  Alcotest.(check int) "num_bits 256" 9 (Bignum.num_bits (bn 256));
  Alcotest.(check int) "num_bits 2^100" 101
    (Bignum.num_bits (Bignum.shift_left Bignum.one 100));
  Alcotest.(check bool) "bit 0 of 5" true (Bignum.test_bit (bn 5) 0);
  Alcotest.(check bool) "bit 1 of 5" false (Bignum.test_bit (bn 5) 1);
  Alcotest.(check bool) "bit 2 of 5" true (Bignum.test_bit (bn 5) 2);
  check_bn "shift round trip" (bn 77)
    (Bignum.shift_right (Bignum.shift_left (bn 77) 131) 131)

let test_bytes_be () =
  Alcotest.(check string) "empty" "" (Bignum.to_bytes_be Bignum.zero);
  Alcotest.(check string) "ff" "\xff" (Bignum.to_bytes_be (bn 255));
  Alcotest.(check string) "0100" "\x01\x00" (Bignum.to_bytes_be (bn 256));
  check_bn "roundtrip" (bs "123456789012345678901234567890")
    (Bignum.of_bytes_be (Bignum.to_bytes_be (bs "123456789012345678901234567890")));
  check_bn "no bytes" Bignum.zero (Bignum.of_bytes_be "");
  Alcotest.check_raises "negative"
    (Invalid_argument "Bignum.to_bytes_be: negative value") (fun () ->
      ignore (Bignum.to_bytes_be (bn (-1))))

let test_compare () =
  Alcotest.(check bool) "lt" true (Bignum.compare (bn 3) (bn 4) < 0);
  Alcotest.(check bool) "neg lt pos" true (Bignum.compare (bn (-1)) (bn 1) < 0);
  Alcotest.(check bool) "neg order" true (Bignum.compare (bn (-5)) (bn (-4)) < 0);
  check_bn "min" (bn (-5)) (Bignum.min (bn (-5)) (bn 3));
  check_bn "max" (bn 3) (Bignum.max (bn (-5)) (bn 3))

(* ------------------------------------------------------------------ *)
(* Bignum property tests                                               *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

(* Random bignums up to ~400 bits, built limb-wise so that long carry and
   borrow chains get exercised. *)
let arbitrary_bignum =
  let gen =
    QCheck.Gen.(
      let* nwords = int_range 0 6 in
      let* words = list_repeat nwords (int_range 0 ((1 lsl 30) - 1)) in
      let* negative = bool in
      let v =
        List.fold_left
          (fun acc w -> Bignum.add_int (Bignum.shift_left acc 30) w)
          Bignum.zero words
      in
      return (if negative then Bignum.neg v else v))
  in
  QCheck.make gen ~print:Bignum.to_string

let prop_int_agreement =
  QCheck.Test.make ~name:"bignum agrees with int arithmetic" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) ->
      let ba = bn a and bb = bn b in
      Bignum.to_int (Bignum.add ba bb) = a + b
      && Bignum.to_int (Bignum.sub ba bb) = a - b
      && Bignum.to_int (Bignum.mul ba bb) = a * b
      && (b = 0
         || Bignum.to_int (Bignum.div ba bb) = a / b
            && Bignum.to_int (Bignum.rem ba bb) = a mod b))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string . to_string = id" ~count:300
    arbitrary_bignum
    (fun v -> Bignum.equal v (bs (Bignum.to_string v)))

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:300
    (QCheck.pair arbitrary_bignum arbitrary_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_mul_commutative =
  QCheck.Test.make ~name:"mul commutative" ~count:300
    (QCheck.pair arbitrary_bignum arbitrary_bignum)
    (fun (a, b) -> Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_distributive =
  QCheck.Test.make ~name:"mul distributes over add" ~count:300
    (QCheck.triple arbitrary_bignum arbitrary_bignum arbitrary_bignum)
    (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r with |r| < |b|" ~count:500
    (QCheck.pair arbitrary_bignum arbitrary_bignum)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.div_rem a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r)
      && Bignum.compare (Bignum.abs r) (Bignum.abs b) < 0
      && (Bignum.is_zero r || Bignum.sign r = Bignum.sign a))

let prop_karatsuba_matches_school =
  (* Operands wide enough to cross the Karatsuba threshold. *)
  let wide =
    QCheck.make ~print:Bignum.to_string
      QCheck.Gen.(
        let* nwords = int_range 35 80 in
        let* words = list_repeat nwords (int_range 0 ((1 lsl 26) - 1)) in
        return
          (List.fold_left
             (fun acc w -> Bignum.add_int (Bignum.shift_left acc 26) w)
             Bignum.zero words))
  in
  QCheck.Test.make ~name:"karatsuba consistent (via divmod inverse)" ~count:50
    (QCheck.pair wide wide)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let p = Bignum.mul a b in
      let q, r = Bignum.div_rem p b in
      Bignum.equal q a && Bignum.is_zero r)

let prop_shift_is_pow2 =
  QCheck.Test.make ~name:"shift_left = mul by 2^k" ~count:200
    (QCheck.pair arbitrary_bignum (QCheck.int_range 0 120))
    (fun (a, k) ->
      Bignum.equal (Bignum.shift_left a k) (Bignum.mul a (Bignum.pow Bignum.two k)))

let prop_erem_range =
  QCheck.Test.make ~name:"erem lands in [0, m)" ~count:300
    (QCheck.pair arbitrary_bignum arbitrary_bignum)
    (fun (a, m) ->
      QCheck.assume (not (Bignum.is_zero m));
      let r = Bignum.erem a m in
      Bignum.sign r >= 0 && Bignum.compare r (Bignum.abs m) < 0)

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_pow_mod_known () =
  let m = bn 1000 in
  check_bn "2^10 mod 1000" (bn 24) (Modular.pow Bignum.two (bn 10) ~m);
  check_bn "x^0" Bignum.one (Modular.pow (bn 7) Bignum.zero ~m);
  check_bn "mod 1" Bignum.zero (Modular.pow (bn 7) (bn 3) ~m:Bignum.one);
  (* Fermat: a^(p-1) = 1 mod p. *)
  let p = bs "2305843009213693951" (* 2^61 - 1, prime *) in
  check_bn "fermat" Bignum.one (Modular.pow (bn 123456) (Bignum.pred p) ~m:p)

let test_inverse () =
  let m = bn 17 in
  check_bn "3 * 6 = 1 mod 17" (bn 6) (Modular.inverse_exn (bn 3) ~m);
  Alcotest.(check bool) "non-invertible" true
    (Modular.inverse (bn 6) ~m:(bn 12) = None);
  let p = bs "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let a = bs "123456789123456789123456789" in
  let inv = Modular.inverse_exn a ~m:p in
  check_bn "big inverse" Bignum.one (Modular.mul a inv ~m:p)

let test_extended_gcd () =
  let check_egcd a b =
    let g, x, y = Modular.extended_gcd (bn a) (bn b) in
    check_bn
      (Printf.sprintf "bezout %d %d" a b)
      g
      (Bignum.add (Bignum.mul (bn a) x) (Bignum.mul (bn b) y));
    check_bn (Printf.sprintf "gcd %d %d" a b) (bn (abs (let rec g a b = if b = 0 then a else g b (a mod b) in g a b))) g
  in
  check_egcd 12 18;
  check_egcd 17 5;
  check_egcd 0 7;
  check_egcd (-12) 18

let test_crt () =
  (* x = 2 mod 3, x = 3 mod 5, x = 2 mod 7 -> x = 23 mod 105. *)
  let x, m = Modular.crt [ (bn 2, bn 3); (bn 3, bn 5); (bn 2, bn 7) ] in
  check_bn "crt value" (bn 23) x;
  check_bn "crt modulus" (bn 105) m;
  Alcotest.check_raises "non-coprime"
    (Invalid_argument "Modular.crt: moduli are not coprime") (fun () ->
      ignore (Modular.crt [ (bn 1, bn 4); (bn 1, bn 6) ]))

let test_jacobi () =
  (* Quadratic residues mod 7: 1, 2, 4. *)
  List.iter
    (fun (a, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "jacobi(%d/7)" a)
        expected
        (Modular.jacobi (bn a) (bn 7)))
    [ (1, 1); (2, 1); (3, -1); (4, 1); (5, -1); (6, -1); (7, 0) ]

let prop_pow_mod_homomorphism =
  let exps = QCheck.pair (QCheck.int_range 0 200) (QCheck.int_range 0 200) in
  QCheck.Test.make ~name:"b^(e1+e2) = b^e1 * b^e2 mod m" ~count:100
    (QCheck.triple arbitrary_bignum exps arbitrary_bignum)
    (fun (b, (e1, e2), m) ->
      let m = Bignum.add (Bignum.abs m) Bignum.two in
      let lhs = Modular.pow b (bn (e1 + e2)) ~m in
      let rhs = Modular.mul (Modular.pow b (bn e1) ~m) (Modular.pow b (bn e2) ~m) ~m in
      Bignum.equal lhs rhs)

let prop_inverse_correct =
  QCheck.Test.make ~name:"a * inverse(a) = 1 mod p" ~count:100
    (QCheck.pair arbitrary_bignum (QCheck.int_range 0 1_000_000))
    (fun (a, salt) ->
      let p = bs "2305843009213693951" in
      let a = Bignum.add_int (Bignum.erem a p) salt in
      let a = Modular.normalize a ~m:p in
      QCheck.assume (not (Bignum.is_zero a));
      match Modular.inverse a ~m:p with
      | None -> false
      | Some inv -> Bignum.equal Bignum.one (Modular.mul a inv ~m:p))



let prop_division_boundary_limbs =
  (* Limbs drawn from {0, 1, base-1} concentrate on the Knuth-D
     correction and add-back paths that uniform random inputs rarely
     reach. *)
  let boundary_bignum =
    QCheck.make ~print:Bignum.to_string
      QCheck.Gen.(
        let* nlimbs = int_range 1 10 in
        let* picks = list_repeat nlimbs (oneofl [ 0; 1; (1 lsl 26) - 1 ]) in
        return
          (List.fold_left
             (fun acc limb -> Bignum.add_int (Bignum.shift_left acc 26) limb)
             Bignum.zero picks))
  in
  QCheck.Test.make ~name:"division correct on boundary-limb patterns"
    ~count:1000
    (QCheck.pair boundary_bignum boundary_bignum)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.div_rem a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r)
      && Bignum.sign r >= 0
      && Bignum.compare r b < 0)

(* Reference codecs: the bit- and byte-at-a-time definitions that
   [to_hex], [of_bytes_be] and [to_bytes_be] replaced.  The limb-level
   codecs must agree with them exactly. *)
let ref_to_hex t =
  if Bignum.is_zero t then "0"
  else begin
    let digits = (Bignum.num_bits t + 3) / 4 in
    let buf = Buffer.create (digits + 1) in
    if Bignum.sign t < 0 then Buffer.add_char buf '-';
    let started = ref false in
    for i = digits - 1 downto 0 do
      let nibble =
        ((if Bignum.test_bit t ((4 * i) + 3) then 8 else 0)
        lor (if Bignum.test_bit t ((4 * i) + 2) then 4 else 0)
        lor (if Bignum.test_bit t ((4 * i) + 1) then 2 else 0)
        lor if Bignum.test_bit t (4 * i) then 1 else 0)
      in
      if nibble <> 0 || !started || i = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[nibble]
      end
    done;
    Buffer.contents buf
  end

let ref_of_bytes_be s =
  let v = ref Bignum.zero in
  String.iter
    (fun c -> v := Bignum.add_int (Bignum.shift_left !v 8) (Char.code c))
    s;
  !v

let ref_to_bytes_be t =
  if Bignum.is_zero t then ""
  else begin
    let nbytes = (Bignum.num_bits t + 7) / 8 in
    let buf = Bytes.create nbytes in
    let v = ref t in
    let mask = bn 255 in
    for i = nbytes - 1 downto 0 do
      Bytes.set buf i (Char.chr (Bignum.to_int (Bignum.logand !v mask)));
      v := Bignum.shift_right !v 8
    done;
    Bytes.to_string buf
  end

let arbitrary_wide_bignum =
  QCheck.make Generators.wide_bignum_gen ~print:Bignum.to_string

(* 0 to 80 bytes, up to three of them leading zeros. *)
let arbitrary_bytes =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      let* zeros = int_range 0 3 in
      let* body = string_size ~gen:char (int_range 0 (80 - zeros)) in
      return (String.make zeros '\000' ^ body))

let strip_leading_zeros s =
  let n = String.length s in
  let rec first i = if i < n && s.[i] = '\000' then first (i + 1) else i in
  let i = first 0 in
  String.sub s i (n - i)

let prop_of_bytes_matches_reference =
  QCheck.Test.make ~name:"of_bytes_be = reference, to_bytes_be inverts it"
    ~count:500 arbitrary_bytes
    (fun s ->
      let v = Bignum.of_bytes_be s in
      Bignum.equal v (ref_of_bytes_be s)
      && String.equal (Bignum.to_bytes_be v) (strip_leading_zeros s))

let prop_to_bytes_and_hex_match_reference =
  QCheck.Test.make
    ~name:"to_bytes_be and to_hex = reference, and both round-trip"
    ~count:500 arbitrary_wide_bignum
    (fun v ->
      let m = Bignum.abs v in
      let bytes = Bignum.to_bytes_be m and hex = Bignum.to_hex v in
      String.equal bytes (ref_to_bytes_be m)
      && String.equal hex (ref_to_hex v)
      && Bignum.equal (Bignum.of_bytes_be bytes) m
      && Bignum.equal (Bignum.of_hex (Bignum.to_hex m)) m)

let test_division_addback_case () =
  (* A shape that forces the D6 add-back: dividend ~ B^(n+1)/2 against a
     divisor with a maximal top limb. *)
  let base = Bignum.shift_left Bignum.one 26 in
  let v =
    (* v = (B/2)*B + (B-1): top limb B/2 forces qhat overestimates. *)
    Bignum.add
      (Bignum.mul (Bignum.shift_right base 1) base)
      (Bignum.pred base)
  in
  let u =
    (* u = v * (B-1) + (v - 1): quotient limb near B-1 with max remainder *)
    Bignum.add (Bignum.mul v (Bignum.pred base)) (Bignum.pred v)
  in
  let q, r = Bignum.div_rem u v in
  check_bn "reconstruct" u (Bignum.add (Bignum.mul q v) r);
  check_bn "quotient" (Bignum.pred base) q;
  check_bn "remainder" (Bignum.pred v) r

(* ------------------------------------------------------------------ *)
(* Montgomery                                                          *)
(* ------------------------------------------------------------------ *)

let test_montgomery_matches_classic () =
  let p = bs "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let ctx = Montgomery.create p in
  List.iter
    (fun (b, e) ->
      check_bn
        (Printf.sprintf "%d^%d" b e)
        (Modular.pow_classic (bn b) (bn e) ~m:p)
        (Montgomery.pow ctx (bn b) (bn e)))
    [ (2, 10); (123456, 65537); (7, 0); (0, 5); (1, 1000) ]

let test_montgomery_validation () =
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Montgomery.create: modulus must be odd") (fun () ->
      ignore (Montgomery.create (bn 100)));
  Alcotest.check_raises "tiny modulus"
    (Invalid_argument "Montgomery.create: modulus too small") (fun () ->
      ignore (Montgomery.create Bignum.one))

let test_montgomery_mul () =
  let p = bs "2305843009213693951" in
  let ctx = Montgomery.create p in
  check_bn "mul" (Modular.mul (bn 123456789) (bn 987654321) ~m:p)
    (Montgomery.mul ctx (bn 123456789) (bn 987654321))

let prop_montgomery_equals_classic =
  QCheck.Test.make ~name:"montgomery pow = classic pow" ~count:100
    (QCheck.triple arbitrary_bignum arbitrary_bignum arbitrary_bignum)
    (fun (b, e, m) ->
      let m = Bignum.logor (Bignum.abs m) Bignum.one in
      let m = Bignum.add m (Bignum.shift_left Bignum.one 64) in
      let m = if Bignum.is_even m then Bignum.succ m else m in
      let e = Bignum.abs e in
      Bignum.equal
        (Modular.pow_classic b e ~m)
        (Montgomery.pow (Montgomery.create m) b e))

let prop_modular_pow_dispatch_consistent =
  QCheck.Test.make ~name:"Modular.pow = Modular.pow_classic" ~count:100
    (QCheck.triple arbitrary_bignum (QCheck.int_range 0 100000) arbitrary_bignum)
    (fun (b, e, m) ->
      let m = Bignum.succ (Bignum.abs m) in
      QCheck.assume (not (Bignum.is_zero m));
      let e = bn e in
      Bignum.equal (Modular.pow b e ~m) (Modular.pow_classic b e ~m))

let test_powers_plan_matches_pow () =
  let p = bs "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let ctx = Montgomery.create p in
  List.iter
    (fun e ->
      let e = bn e in
      let plan = Montgomery.powers ctx e in
      let bases = List.init 9 (fun i -> bn ((i * 7919) - 3)) in
      List.iter2
        (fun b r ->
          check_bn
            (Printf.sprintf "plan base %s" (Bignum.to_string b))
            (Montgomery.pow ctx b e) r)
        bases
        (Montgomery.pow_many plan bases))
    (* 0 and small exponents take the tiny binary fallback; larger ones
       the 4-bit windowed path. *)
    [ 0; 1; 2; 255; 256; 65537; 99999999 ]

let prop_pow_many_equals_map_pow =
  (* Batch dispatch agrees with element-at-a-time dispatch on arbitrary
     moduli — odd and even, so both the Montgomery and classic branches
     are exercised — and arbitrary exponent widths including the
     tiny-exponent fallback. *)
  QCheck.Test.make ~name:"Modular.pow_many = map Modular.pow" ~count:100
    (QCheck.triple
       (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arbitrary_bignum)
       arbitrary_bignum arbitrary_bignum)
    (fun (bs_, e, m) ->
      let m = Bignum.succ (Bignum.abs m) in
      let e = Bignum.abs e in
      List.for_all2 Bignum.equal
        (Modular.pow_many bs_ e ~m)
        (List.map (fun b -> Modular.pow b e ~m) bs_))

let test_pow_many_empty_and_unit_modulus () =
  Alcotest.(check int) "empty batch" 0
    (List.length (Modular.pow_many [] (bn 3) ~m:(bn 7)));
  List.iter
    (fun r -> check_bn "mod 1" Bignum.zero r)
    (Modular.pow_many [ bn 5; bn 9 ] (bn 3) ~m:Bignum.one);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Modular.pow_many: negative exponent") (fun () ->
      ignore (Modular.pow_many [ bn 2 ] (bn (-1)) ~m:(bn 7)))

(* A modulus shape every Montgomery fast path accepts: odd, >= 64
   bits.  Derived from arbitrary bignums for the property tests. *)
let mont_modulus_of m =
  let m = Bignum.logor (Bignum.abs m) Bignum.one in
  let m = Bignum.add m (Bignum.shift_left Bignum.one 64) in
  if Bignum.is_even m then Bignum.succ m else m

let test_pow_base_matches_pow () =
  let p = bs "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let bases = [ Bignum.zero; Bignum.one; bn 2; bn 7919; Bignum.pred p; p ] in
  let exps =
    [ Bignum.zero; Bignum.one; bn 2; bn 15; bn 16; bn 255; bn 65537;
      Bignum.pred p ]
  in
  List.iter
    (fun base ->
      List.iter
        (fun e ->
          check_bn
            (Printf.sprintf "%s^%s" (Bignum.to_string base) (Bignum.to_string e))
            (Modular.pow base e ~m:p)
            (Modular.pow_base ~base e ~m:p))
        exps)
    bases;
  (* Fallback shapes: even modulus, single-limb modulus, modulus 1. *)
  check_bn "even modulus" (Modular.pow (bn 3) (bn 20) ~m:(bn 100))
    (Modular.pow_base ~base:(bn 3) (bn 20) ~m:(bn 100));
  check_bn "small modulus" (Modular.pow (bn 3) (bn 20) ~m:(bn 101))
    (Modular.pow_base ~base:(bn 3) (bn 20) ~m:(bn 101));
  check_bn "mod 1" Bignum.zero (Modular.pow_base ~base:(bn 3) (bn 20) ~m:Bignum.one);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Modular.pow_base: negative exponent") (fun () ->
      ignore (Modular.pow_base ~base:(bn 2) (bn (-1)) ~m:p))

let test_base_table_growth () =
  (* Rows materialize on demand: a wider exponent grows the table, a
     narrower one reuses it, and results stay correct across growth. *)
  let p = bs "170141183460469231731687303715884105727" in
  let ctx = Montgomery.create p in
  let t = Montgomery.base_table ctx (bn 5) in
  Alcotest.(check int) "starts empty" 0 (Montgomery.table_windows t);
  check_bn "8-bit exponent" (Modular.pow_classic (bn 5) (bn 200) ~m:p)
    (Montgomery.pow_base t (bn 200));
  Alcotest.(check int) "two windows" 2 (Montgomery.table_windows t);
  let wide = Bignum.pred (Bignum.shift_left Bignum.one 100) in
  check_bn "100-bit exponent" (Modular.pow_classic (bn 5) wide ~m:p)
    (Montgomery.pow_base t wide);
  Alcotest.(check int) "grown to 25 windows" 25 (Montgomery.table_windows t);
  check_bn "narrow again" (Modular.pow_classic (bn 5) (bn 3) ~m:p)
    (Montgomery.pow_base t (bn 3));
  Alcotest.(check int) "no shrink" 25 (Montgomery.table_windows t);
  check_bn "cache key base" (bn 5) (Montgomery.table_base t);
  check_bn "cache key modulus" p (Montgomery.table_modulus t)

let test_base_table_cache_counters () =
  Modular.reset_mont_cache ();
  let p = Bignum.succ (Bignum.shift_left Bignum.one 89) in
  let e = Bignum.pred (Bignum.shift_left Bignum.one 60) in
  let created = Obs.Metrics.get "crypto.mont.fixed_base_table_create" in
  let hits = Obs.Metrics.get "crypto.mont.fixed_base_hit" in
  ignore (Modular.pow_base ~base:(bn 42) e ~m:p);
  ignore (Modular.pow_base ~base:(bn 42) e ~m:p);
  ignore (Modular.pow_base ~base:(bn 43) e ~m:p);
  Alcotest.(check int) "one table per (m, base)" 2
    (Obs.Metrics.get "crypto.mont.fixed_base_table_create" - created);
  Alcotest.(check int) "repeat is a hit" 1
    (Obs.Metrics.get "crypto.mont.fixed_base_hit" - hits)

let prop_pow_base_equals_classic =
  QCheck.Test.make ~name:"Modular.pow_base = classic pow" ~count:100
    (QCheck.triple arbitrary_bignum arbitrary_bignum arbitrary_bignum)
    (fun (base, e, m) ->
      let m = mont_modulus_of m in
      let e = Bignum.abs e in
      Bignum.equal (Modular.pow_classic base e ~m) (Modular.pow_base ~base e ~m))

let test_pow2_known () =
  let p = bs "170141183460469231731687303715884105727" in
  let ctx = Montgomery.create p in
  let check a e1 b e2 =
    check_bn
      (Printf.sprintf "%d^%d * %d^%d" a e1 b e2)
      (Modular.mul
         (Modular.pow_classic (bn a) (bn e1) ~m:p)
         (Modular.pow_classic (bn b) (bn e2) ~m:p)
         ~m:p)
      (Montgomery.pow2 ctx (bn a) (bn e1) (bn b) (bn e2))
  in
  check 2 10 3 7;
  check 0 5 3 7;
  check 1 0 1 0;
  check 7 0 9 65537;
  check 123456 99999 654321 3;
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Montgomery.pow2: negative exponent") (fun () ->
      ignore (Montgomery.pow2 ctx (bn 2) (bn (-1)) (bn 3) (bn 1)))

let prop_pow2_equals_product =
  QCheck.Test.make ~name:"pow2 = product of pows" ~count:100
    (QCheck.triple
       (QCheck.pair arbitrary_bignum arbitrary_bignum)
       (QCheck.pair arbitrary_bignum arbitrary_bignum)
       arbitrary_bignum)
    (fun ((a, e1), (b, e2), m) ->
      let m = mont_modulus_of m in
      let e1 = Bignum.abs e1 and e2 = Bignum.abs e2 in
      let ctx = Montgomery.create m in
      Bignum.equal
        (Modular.mul
           (Modular.pow_classic a e1 ~m)
           (Modular.pow_classic b e2 ~m)
           ~m)
        (Montgomery.pow2 ctx a e1 b e2))

let test_multi_pow_edges () =
  let p = bs "170141183460469231731687303715884105727" in
  check_bn "empty product" Bignum.one (Modular.multi_pow [] ~m:p);
  check_bn "empty product mod 1" Bignum.zero (Modular.multi_pow [] ~m:Bignum.one);
  check_bn "single pair" (Modular.pow (bn 3) (bn 65537) ~m:p)
    (Modular.multi_pow [ (bn 3, bn 65537) ] ~m:p);
  check_bn "all-zero exponents" Bignum.one
    (Modular.multi_pow [ (bn 3, Bignum.zero); (bn 5, Bignum.zero) ] ~m:p);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Modular.multi_pow: negative exponent") (fun () ->
      ignore (Modular.multi_pow [ (bn 2, bn (-3)) ] ~m:p))

let prop_multi_pow_equals_product =
  (* Up to 14 pairs so the scan spans several 6-base chunks; both the
     Montgomery path and (via even moduli) the naive fallback. *)
  let pair = QCheck.pair arbitrary_bignum arbitrary_bignum in
  QCheck.Test.make ~name:"multi_pow = folded product of pows" ~count:60
    (QCheck.triple
       (QCheck.list_of_size (QCheck.Gen.int_range 0 14) pair)
       arbitrary_bignum QCheck.bool)
    (fun (pairs, m, mont) ->
      let m =
        if mont then mont_modulus_of m else Bignum.succ (Bignum.abs m)
      in
      QCheck.assume (not (Bignum.is_zero m));
      let pairs = List.map (fun (b, e) -> (b, Bignum.abs e)) pairs in
      let expected =
        List.fold_left
          (fun acc (b, e) -> Modular.mul acc (Modular.pow_classic b e ~m) ~m)
          (Modular.normalize Bignum.one ~m)
          pairs
      in
      Bignum.equal expected (Modular.multi_pow pairs ~m))

(* The kernel's edge cases: odd moduli of 1 to 81 limbs in the three
   shapes of [Generators.shaped_bignum_gen] (a full-width [`Ones]
   modulus has every limb 2^26-1, which maximizes the column sums and
   the top carry), with contexts built directly so that k = 1 and 2 are
   reached.  Exponents are capped on wide moduli to keep the classic
   reference fast. *)
let kernel_exponent_bits k = min (26 * k) (max 32 (4096 / k))

let kernel_case_gen =
  let open QCheck.Gen in
  let* k = int_range 1 81 in
  let* width =
    oneof [ return (26 * k); int_range (max 2 ((26 * (k - 1)) + 1)) (26 * k) ]
  in
  let* m = Generators.shaped_bignum_gen width in
  let m = Bignum.logor m Bignum.one in
  let* e_rand =
    int_range 0 (kernel_exponent_bits k) >>= Generators.shaped_bignum_gen
  in
  let* above = Generators.shaped_bignum_gen (Bignum.num_bits m) in
  return (m, e_rand, Bignum.add m above)

let prop_kernel_edges =
  let print (m, e, b) =
    Printf.sprintf "m=%s e=%s b=%s" (Bignum.to_string m) (Bignum.to_string e)
      (Bignum.to_string b)
  in
  QCheck.Test.make ~name:"every Montgomery path = reference on 1-81 limbs"
    ~count:40
    (QCheck.make ~print kernel_case_gen)
    (fun (m, e_rand, b_above) ->
      let ctx = Montgomery.create m in
      let k = Array.length (Bignum.to_limbs m) in
      let ones =
        Bignum.pred (Bignum.shift_left Bignum.one (kernel_exponent_bits k))
      in
      let bases = [| Bignum.zero; Bignum.one; Bignum.pred m; m; b_above |] in
      let exps = [| Bignum.zero; Bignum.one; ones; e_rand |] in
      let classic b e = Modular.pow_classic b e ~m in
      let mulm a b = Modular.mul a b ~m in
      (* expected.(i).(j) = bases.(i)^exps.(j) mod m *)
      let expected = Array.map (fun b -> Array.map (classic b) exps) bases in
      let pow_ok =
        Array.for_all2
          (fun b row ->
            Array.for_all2
              (fun e r -> Bignum.equal r (Montgomery.pow ctx b e))
              exps row)
          bases expected
      in
      let pow_many_ok =
        Array.for_all
          (fun j ->
            List.for_all2 Bignum.equal
              (Array.to_list (Array.map (fun row -> row.(j)) expected))
              (Montgomery.pow_many
                 (Montgomery.powers ctx exps.(j))
                 (Array.to_list bases)))
          (Array.init (Array.length exps) Fun.id)
      in
      (* A ring pass in miniature: four hops, each re-raising the
         previous hop's output through a reused plan, checked against
         the classic chain. *)
      let hops = [ ones; e_rand; Bignum.one; Bignum.zero ] in
      let plans = List.map (Montgomery.powers ctx) hops in
      let chain_ok =
        Array.for_all
          (fun b ->
            let _, _, ok =
              List.fold_left2
                (fun (r, v, ok) plan e ->
                  let r = Montgomery.pow_with plan r in
                  let v = classic v e in
                  (r, v, ok && Bignum.equal v r))
                (b, b, true) plans hops
            in
            ok)
          bases
      in
      let pow_base_ok =
        Array.for_all2
          (fun b row ->
            let t = Montgomery.base_table ctx b in
            Array.for_all2
              (fun e r -> Bignum.equal r (Montgomery.pow_base t e))
              exps row)
          bases expected
      in
      (* Pair base i with exponent i mod 4, so every base and exponent
         takes part. *)
      let nb = Array.length bases and ne = Array.length exps in
      let term i = (bases.(i mod nb), exps.(i mod ne)) in
      let term_ref i = expected.(i mod nb).(i mod ne) in
      let pow2_ok =
        List.for_all
          (fun i ->
            let a, ea = term i and b, eb = term (i + 1) in
            Bignum.equal
              (mulm (term_ref i) (term_ref (i + 1)))
              (Montgomery.pow2 ctx a ea b eb))
          (List.init nb Fun.id)
      in
      let multi_pow_ok =
        let idx = List.init nb Fun.id in
        Bignum.equal
          (List.fold_left (fun acc i -> mulm acc (term_ref i)) Bignum.one idx)
          (Montgomery.multi_pow ctx (List.map term idx))
      in
      let mul_ok =
        Array.for_all
          (fun a ->
            Array.for_all
              (fun b -> Bignum.equal (mulm a b) (Montgomery.mul ctx a b))
              bases)
          bases
      in
      pow_ok && pow_many_ok && chain_ok && pow_base_ok && pow2_ok
      && multi_pow_ok && mul_ok)

(* The kernel allocates nothing.  This exponent (255 one-bits) costs 332
   kernel multiplications per call: 14 to fill the window table, 252
   squarings, 64 window multiplications, and the domain entry and exit.
   [pow_with]'s own reduced base and result take under 60 words, so the
   bound of 200 words per call fails a kernel that allocates even one
   word per multiplication. *)
let test_pow_with_allocation () =
  let m = Bignum.pred (Bignum.shift_left Bignum.one 256) in
  let ctx = Montgomery.create m in
  let plan = Montgomery.powers ctx (Bignum.shift_right m 1) in
  let b = Bignum.shift_right m 7 in
  ignore (Montgomery.pow_with plan b);
  let bound = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Montgomery.pow_with plan b))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 100 calls (at most %d)" words
       (100 * bound))
    true
    (words <= float_of_int (100 * bound))

(* A modulus of [limbs] limbs, all ones: odd, and the widest such. *)
let all_ones_limbs limbs =
  Bignum.pred (Bignum.shift_left Bignum.one (limbs * Bignum.limb_bits))

let test_width_bound () =
  let limit = Montgomery.max_modulus_bits / Bignum.limb_bits in
  (* At the bound, with the largest limbs: the kernel still agrees. *)
  let m = all_ones_limbs limit in
  let ctx = Montgomery.create m in
  List.iter
    (fun b ->
      check_bn "at the bound"
        (Modular.pow_classic b (bn 5) ~m)
        (Montgomery.pow ctx b (bn 5)))
    [ Bignum.pred m; Bignum.shift_right m 3 ];
  (* One limb past it: Montgomery refuses the modulus and every
     Modular entry point takes the classic path. *)
  let m = all_ones_limbs (limit + 1) in
  Alcotest.check_raises "create rejects"
    (Invalid_argument "Montgomery.create: modulus too wide") (fun () ->
      ignore (Montgomery.create m));
  let e = bn 65537 and b = Bignum.shift_right m 5 in
  let expected = Modular.pow_classic b e ~m in
  let created = Obs.Metrics.get "crypto.mont.ctx_create" in
  check_bn "pow" expected (Modular.pow b e ~m);
  check_bn "pow_base" expected (Modular.pow_base ~base:b e ~m);
  check_bn "multi_pow" expected (Modular.multi_pow [ (b, e) ] ~m);
  List.iter (check_bn "pow_many" expected) (Modular.pow_many [ b; b ] e ~m);
  Alcotest.(check int) "no context created" created
    (Obs.Metrics.get "crypto.mont.ctx_create")

let test_mont_cache_eviction_order () =
  (* Regression for LRU ordering under a configurable capacity: with
     room for two contexts, re-touching the older one must make the
     *other* entry the eviction victim. *)
  let default = Modular.mont_cache_capacity () in
  Fun.protect
    ~finally:(fun () -> Modular.set_mont_cache_capacity default)
    (fun () ->
      Modular.set_mont_cache_capacity 2;
      Alcotest.(check int) "capacity set" 2 (Modular.mont_cache_capacity ());
      Modular.reset_mont_cache ();
      let modulus i = Bignum.succ (Bignum.shift_left Bignum.one (80 + i)) in
      let e = Bignum.pred (Bignum.shift_left Bignum.one 20) in
      let touch i = ignore (Modular.pow (bn 9) e ~m:(modulus i)) in
      let creates () = Obs.Metrics.get "crypto.mont.ctx_create" in
      let hits () = Obs.Metrics.get "crypto.mont.cache_hit" in
      let c0 = creates () in
      touch 1; touch 2;                 (* cache (MRU first): [2; 1] *)
      let h0 = hits () in
      touch 1;                          (* hit -> [1; 2] *)
      Alcotest.(check int) "re-touch hits" 1 (hits () - h0);
      touch 3;                          (* evicts 2 -> [3; 1] *)
      let h1 = hits () in
      touch 1;                          (* survivor still cached *)
      Alcotest.(check int) "LRU victim was 2, not 1" 1 (hits () - h1);
      touch 2;                          (* 2 was evicted: fresh create *)
      Alcotest.(check int) "creations: m1, m2, m3, m2 again" 4
        (creates () - c0);
      (* Shrinking trims immediately. *)
      Modular.set_mont_cache_capacity 1;
      let h2 = hits () in
      touch 2;                          (* MRU survives the trim *)
      Alcotest.(check int) "trim keeps MRU" 1 (hits () - h2);
      (* Clamp: capacity never drops below one. *)
      Modular.set_mont_cache_capacity 0;
      Alcotest.(check int) "clamped to 1" 1 (Modular.mont_cache_capacity ()))

let test_mont_cache_lru () =
  (* Interleaving more moduli than the cache holds: LRU keeps the
     working set as long as it fits, so creations stay O(#moduli). *)
  Modular.reset_mont_cache ();
  let moduli =
    List.init 3 (fun i ->
        Bignum.succ
          (Bignum.shift_left Bignum.one (70 + i))
        (* 2^(70+i) + 1: odd, >= 64 bits, pairwise distinct *))
  in
  let e = Bignum.pred (Bignum.shift_left Bignum.one 20) in
  let b = bn 12345 in
  let before = Obs.Metrics.get "crypto.mont.ctx_create" in
  for _ = 1 to 5 do
    List.iter (fun m -> ignore (Modular.pow b e ~m)) moduli
  done;
  Alcotest.(check int) "one creation per modulus" 3
    (Obs.Metrics.get "crypto.mont.ctx_create" - before)

(* ------------------------------------------------------------------ *)
(* Primes                                                              *)
(* ------------------------------------------------------------------ *)

let test_small_primes_list () =
  Alcotest.(check int) "168 primes below 1000" 168 (List.length Primes.small_primes);
  Alcotest.(check (list int)) "first ten"
    [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 ]
    (List.filteri (fun i _ -> i < 10) Primes.small_primes)

let test_is_probable_prime_known () =
  let rng = Prng.create ~seed:42 in
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) true
        (Primes.is_probable_prime rng (bn p)))
    [ 2; 3; 5; 7; 97; 563; 7919 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c) false
        (Primes.is_probable_prime rng (bn c)))
    [ 0; 1; 4; 9; 561 (* Carmichael *); 8911 (* Carmichael *); 1000 ];
  Alcotest.(check bool) "2^61-1 prime" true
    (Primes.is_probable_prime rng (bs "2305843009213693951"));
  Alcotest.(check bool) "2^67-1 composite" false
    (Primes.is_probable_prime rng (bs "147573952589676412927"))

let test_random_prime () =
  let rng = Prng.create ~seed:7 in
  List.iter
    (fun bits ->
      let p = Primes.random_prime rng ~bits in
      Alcotest.(check int) (Printf.sprintf "%d-bit width" bits) bits (Bignum.num_bits p);
      Alcotest.(check bool) "is prime" true (Primes.is_probable_prime rng p))
    [ 8; 16; 32; 64; 128 ]

let test_safe_prime () =
  let rng = Prng.create ~seed:11 in
  let p = Primes.random_safe_prime rng ~bits:64 in
  Alcotest.(check int) "width" 64 (Bignum.num_bits p);
  Alcotest.(check bool) "p prime" true (Primes.is_probable_prime rng p);
  let q = Bignum.shift_right (Bignum.pred p) 1 in
  Alcotest.(check bool) "(p-1)/2 prime" true (Primes.is_probable_prime rng q)

let test_next_prime () =
  let rng = Prng.create ~seed:3 in
  check_bn "after 0" Bignum.two (Primes.next_prime rng Bignum.zero);
  check_bn "after 2" (bn 3) (Primes.next_prime rng Bignum.two);
  check_bn "after 8" (bn 11) (Primes.next_prime rng (bn 8));
  check_bn "after 7919" (bn 7927) (Primes.next_prime rng (bn 7919))

let test_rsa_modulus () =
  let rng = Prng.create ~seed:5 in
  let n, p, q = Primes.rsa_modulus rng ~bits:64 in
  check_bn "n = p*q" n (Bignum.mul p q);
  Alcotest.(check bool) "p <> q" false (Bignum.equal p q);
  Alcotest.(check bool) "p prime" true (Primes.is_probable_prime rng p);
  Alcotest.(check bool) "q prime" true (Primes.is_probable_prime rng q)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_copy_and_split () =
  let a = Prng.create ~seed:1 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy same" (Prng.next_int64 a) (Prng.next_int64 b);
  let c = Prng.create ~seed:1 in
  let child = Prng.split c in
  Alcotest.(check bool) "split diverges" false
    (Prng.next_int64 c = Prng.next_int64 child)

let test_prng_int_range () =
  let rng = Prng.create ~seed:123 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_bignum_below () =
  let rng = Prng.create ~seed:321 in
  let bound = bs "123456789012345678901234567890" in
  for _ = 1 to 100 do
    let v = Prng.bignum_below rng bound in
    Alcotest.(check bool) "in range" true
      (Bignum.sign v >= 0 && Bignum.compare v bound < 0)
  done

let test_prng_bits_width () =
  let rng = Prng.create ~seed:17 in
  for _ = 1 to 50 do
    let v = Prng.bits rng 80 in
    Alcotest.(check bool) "fits width" true (Bignum.num_bits v <= 80)
  done

let prop_prng_int_uniform_coverage =
  QCheck.Test.make ~name:"all residues hit for small bound" ~count:5
    (QCheck.int_range 2 8)
    (fun bound ->
      let rng = Prng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 1000 do
        seen.(Prng.int rng bound) <- true
      done;
      Array.for_all (fun x -> x) seen)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numtheory"
    [ ( "bignum:unit",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_add_sub_small;
          Alcotest.test_case "mul" `Quick test_mul_known;
          Alcotest.test_case "div_rem" `Quick test_div_rem_known;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "bytes_be" `Quick test_bytes_be;
          Alcotest.test_case "compare" `Quick test_compare
        ] );
      ( "bignum:props",
        qt
          [ prop_int_agreement; prop_string_roundtrip; prop_add_commutative;
            prop_mul_commutative; prop_distributive; prop_divmod_identity;
            prop_karatsuba_matches_school; prop_shift_is_pow2; prop_erem_range;
            prop_division_boundary_limbs; prop_of_bytes_matches_reference;
            prop_to_bytes_and_hex_match_reference
          ]
        @ [ Alcotest.test_case "add-back case" `Quick test_division_addback_case ] );
      ( "modular",
        Alcotest.test_case "pow known" `Quick test_pow_mod_known
        :: Alcotest.test_case "inverse" `Quick test_inverse
        :: Alcotest.test_case "extended gcd" `Quick test_extended_gcd
        :: Alcotest.test_case "crt" `Quick test_crt
        :: Alcotest.test_case "jacobi" `Quick test_jacobi
        :: qt [ prop_pow_mod_homomorphism; prop_inverse_correct ] );
      ( "montgomery",
        Alcotest.test_case "matches classic" `Quick test_montgomery_matches_classic
        :: Alcotest.test_case "validation" `Quick test_montgomery_validation
        :: Alcotest.test_case "mul" `Quick test_montgomery_mul
        :: Alcotest.test_case "powers plan" `Quick test_powers_plan_matches_pow
        :: Alcotest.test_case "pow_many edges" `Quick
             test_pow_many_empty_and_unit_modulus
        :: Alcotest.test_case "ctx cache LRU" `Quick test_mont_cache_lru
        :: Alcotest.test_case "eviction order (configurable capacity)" `Quick
             test_mont_cache_eviction_order
        :: qt
             [ prop_montgomery_equals_classic;
               prop_modular_pow_dispatch_consistent;
               prop_pow_many_equals_map_pow ] );
      ( "montgomery:fixed-base",
        Alcotest.test_case "pow_base matches pow" `Quick
          test_pow_base_matches_pow
        :: Alcotest.test_case "table growth" `Quick test_base_table_growth
        :: Alcotest.test_case "table cache counters" `Quick
             test_base_table_cache_counters
        :: qt [ prop_pow_base_equals_classic ] );
      ( "montgomery:multi-exp",
        Alcotest.test_case "pow2 known" `Quick test_pow2_known
        :: Alcotest.test_case "multi_pow edges" `Quick test_multi_pow_edges
        :: qt [ prop_pow2_equals_product; prop_multi_pow_equals_product ] );
      ( "montgomery:kernel",
        Alcotest.test_case "allocation-free" `Quick test_pow_with_allocation
        :: Alcotest.test_case "width bound" `Quick test_width_bound
        :: qt [ prop_kernel_edges ] );
      ( "primes",
        [ Alcotest.test_case "small primes" `Quick test_small_primes_list;
          Alcotest.test_case "known primes/composites" `Quick test_is_probable_prime_known;
          Alcotest.test_case "random prime" `Quick test_random_prime;
          Alcotest.test_case "safe prime" `Slow test_safe_prime;
          Alcotest.test_case "next prime" `Quick test_next_prime;
          Alcotest.test_case "rsa modulus" `Quick test_rsa_modulus
        ] );
      ( "prng",
        Alcotest.test_case "determinism" `Quick test_prng_determinism
        :: Alcotest.test_case "copy/split" `Quick test_prng_copy_and_split
        :: Alcotest.test_case "int range" `Quick test_prng_int_range
        :: Alcotest.test_case "bignum_below" `Quick test_prng_bignum_below
        :: Alcotest.test_case "bits width" `Quick test_prng_bits_width
        :: qt [ prop_prng_int_uniform_coverage ] )
    ]
