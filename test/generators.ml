(* Shared seeded-sweep helpers and qcheck generators for the test
   executables.  Every module in this directory is linked into each
   test binary (dune's (tests) stanza), so suites reference these as
   [Generators.*] instead of redefining them.

   Seeding conventions, shared with CI:
   - QCHECK_SEED drives qcheck-style generated inputs ([qcheck_seed],
     [cases]); qcheck-alcotest also reads it natively for
     [QCheck.Test.make] properties.
   - CHAOS_SEED drives network schedules ([chaos_seed] and the chaos
     suite's extra sweep seed).
   - CRYPTO_SEED appends one replay seed to [sweep_seeds]. *)

open Numtheory

let env_int name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s must be an integer, got %S" name s))

let env_extra_seed name base =
  match Sys.getenv_opt name with
  | None -> base
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some seed -> base @ [ seed ]
    | None -> failwith (Printf.sprintf "%s must be an integer, got %S" name s))

(* Seeded sweep in the style of the chaos suite: the built-in seeds run
   always; exporting CRYPTO_SEED=<int> adds one more, so a failure seed
   found elsewhere (CI, fuzzing) replays here verbatim. *)
let sweep_seeds = env_extra_seed "CRYPTO_SEED" [ 101; 102; 103; 104; 105 ]

let chaos_seeds = env_extra_seed "CHAOS_SEED" [ 0; 1; 2; 3; 4 ]
let qcheck_seed () = env_int "QCHECK_SEED" ~default:4242
let chaos_seed () = env_int "CHAOS_SEED" ~default:0

(* ------------------------------------------------------------------ *)
(* Crypto material                                                     *)
(* ------------------------------------------------------------------ *)

let ph_params =
  lazy
    (let rng = Prng.create ~seed:555 in
     Crypto.Pohlig_hellman.generate_params rng ~bits:128)

let fresh_scheme seed =
  Crypto.Commutative.pohlig_hellman (Prng.create ~seed) (Lazy.force ph_params)

let xor_scheme seed =
  Crypto.Commutative.xor_pad (Prng.create ~seed)
    (Crypto.Xor_pad.params ~width_bits:256)

let commutative_keypair seed = (fresh_scheme seed).Crypto.Commutative.fresh_keypair ()

(* 2^61 - 1: the shared sum/equality modulus, far above any test sum. *)
let sum_p = lazy (Bignum.of_string "2305843009213693951")

(* ------------------------------------------------------------------ *)
(* qcheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* Attribute values from a small shared universe, so generated sets
   overlap often enough to make intersections non-trivial. *)
let element_gen =
  QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

let set_gen ?(max_size = 4) () =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 max_size) element_gen

let set_triple_gen =
  QCheck.Gen.triple (set_gen ()) (set_gen ()) (set_gen ())

(* Participant input sets: per-party small non-negative values. *)
let values_gen ?(parties_min = 2) ?(parties_max = 5) ?(hi = 1_000_000) () =
  QCheck.Gen.list_size
    (QCheck.Gen.int_range parties_min parties_max)
    (QCheck.Gen.int_range 0 hi)

let bignum_gen ?(hi = 1_000_000) () =
  QCheck.Gen.map Bignum.of_int (QCheck.Gen.int_range 0 hi)

(* A magnitude of exactly [width] bits (0 when [width] is 0): random
   below the top bit, all ones, or a lone top bit. *)
let shaped_bignum_gen width =
  let open QCheck.Gen in
  let* words = list_repeat ((width / 30) + 1) (int_range 0 ((1 lsl 30) - 1)) in
  let* shape = oneofl [ `Random; `Ones; `Top ] in
  let top = Bignum.shift_left Bignum.one (max 0 (width - 1)) in
  let below =
    match shape with
    | `Top -> Bignum.zero
    | `Ones -> Bignum.pred top
    | `Random ->
      Bignum.rem
        (List.fold_left
           (fun acc w -> Bignum.add_int (Bignum.shift_left acc 30) w)
           Bignum.zero words)
        top
  in
  return (if width = 0 then Bignum.zero else Bignum.add top below)

(* Signed bignums of 0 to 600 bits, half of them one bit wide or within
   one bit of a 26-bit limb boundary (26, 52, 78), in the shapes of
   [shaped_bignum_gen].  Built by shifts and adds only, so the byte and
   hex codecs can be tested on it. *)
let wide_bignum_gen =
  let open QCheck.Gen in
  let* width =
    oneof
      [ oneofl [ 1; 25; 26; 27; 51; 52; 53; 77; 78; 79 ]; int_range 0 600 ]
  in
  let* v = shaped_bignum_gen width in
  let* negative = bool in
  return (if negative then Bignum.neg v else v)

(* Equality inputs: bias toward actual equality so both verdicts get
   exercised. *)
let equality_pair_gen =
  let open QCheck.Gen in
  bool >>= fun same ->
  int_range 0 1_000_000 >>= fun l ->
  if same then return (l, l)
  else map (fun r -> (l, r)) (int_range 0 1_000_000)

let votes_gen ?(voters_min = 2) ?(voters_max = 7) () =
  QCheck.Gen.list_size
    (QCheck.Gen.int_range voters_min voters_max)
    QCheck.Gen.bool

(* Random queries over the paper schema, shared by the query-equivalence
   and session-batching properties.  Constants are drawn near the Table 1
   values so comparisons land on both sides. *)
let paper_query_gen =
  let open QCheck.Gen in
  let open Dla in
  let d = Attribute.defined and u = Attribute.undefined in
  let attr =
    oneofl [ d "time"; d "id"; d "protocl"; d "tid"; u 1; u 2; u 3 ]
  in
  let const_for a =
    match Attribute.to_string a with
    | "time" ->
      map (fun dt -> Value.Time (1021234715 + dt)) (int_range (-500) 500)
    | "id" -> map (fun i -> Value.Str (Printf.sprintf "U%d" i)) (int_range 1 3)
    | "protocl" -> oneofl [ Value.Str "UDP"; Value.Str "TCP" ]
    | "tid" -> oneofl [ Value.Str "T1100265"; Value.Str "T1100267" ]
    | "C1" -> map (fun v -> Value.Int v) (int_range 0 60)
    | "C2" -> map (fun v -> Value.Money v) (int_range 0 70000)
    | _ ->
      oneofl
        [ Value.Str "signature"; Value.Str "bank"; Value.Str "account";
          Value.Str "salary" ]
  in
  let op = oneofl Query.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  let atom =
    let* a = attr in
    let* o = op in
    let* use_attr_rhs = frequency [ (2, return false); (1, return true) ] in
    if use_attr_rhs then
      let* b = attr in
      return (Query.Atom { Query.attr = a; op = o; rhs = Query.Attr b })
    else
      let* c = const_for a in
      return (Query.Atom { Query.attr = a; op = o; rhs = Query.Const c })
  in
  let rec tree depth =
    if depth = 0 then atom
    else
      frequency
        [ (3, atom);
          ( 2,
            let* x = tree (depth - 1) in
            let* y = tree (depth - 1) in
            return (Query.And (x, y)) );
          ( 2,
            let* x = tree (depth - 1) in
            let* y = tree (depth - 1) in
            return (Query.Or (x, y)) );
          ( 1,
            let* x = tree (depth - 1) in
            return (Query.Not x) )
        ]
  in
  tree 3

(* Generated log populations over the paper schema, with values drawn
   from the same bands as [paper_query_gen]'s constants so generated
   criteria select some rows and not others.  tid, C2 and C3 are each
   absent a quarter of the time, C3 is Money or Str, and tid sometimes
   equals an id, so cross atoms see missing operands, mixed comparison
   classes and equal pairs. *)
let paper_population_gen =
  let open QCheck.Gen in
  let open Dla in
  let d = Attribute.defined and u = Attribute.undefined in
  let maybe attr value_gen =
    frequency [ (1, return []); (3, map (fun v -> [ (attr, v) ]) value_gen) ]
  in
  let money = map (fun v -> Value.Money v) (int_range 0 70000) in
  let row =
    let* time = int_range (-500) 500 in
    let* id = map (Printf.sprintf "U%d") (int_range 1 3) in
    let* protocl = oneofl [ "UDP"; "TCP" ] in
    let* c1 = int_range 0 60 in
    let* tid =
      maybe (d "tid")
        (map (fun s -> Value.Str s) (oneofl [ "T1100265"; "T1100267"; "U1" ]))
    in
    let* c2 = maybe (u 2) money in
    let* c3 =
      maybe (u 3)
        (oneof
           [ money;
             map (fun s -> Value.Str s) (oneofl [ "signature"; "bank" ]) ])
    in
    return
      ([ (d "time", Value.Time (1021234715 + time)); (d "id", Value.Str id);
         (d "protocl", Value.Str protocl); (u 1, Value.Int c1) ]
      @ tid @ c2 @ c3)
  in
  list_size (int_range 2 8) row

(* Deterministic qcheck sampling for data-driven (non-property) suites:
   same QCHECK_SEED, same cases. *)
let cases ~seed ~count gen =
  QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:count gen
