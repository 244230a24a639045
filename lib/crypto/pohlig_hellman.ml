open Numtheory

type params = { p : Bignum.t; span : Bignum.t }
type key = { e : Bignum.t; d : Bignum.t }

(* [span = p - 3] backs the deterministic encoding; hoisted here so the
   ring-encryption hot loop does not re-derive it per element. *)
let make_params p = { p; span = Bignum.sub p (Bignum.of_int 3) }
let generate_params rng ~bits = make_params (Primes.random_safe_prime rng ~bits)

let generate_key rng { p; _ } =
  let phi = Bignum.pred p in
  let rec go () =
    let e = Prng.bignum_range rng (Bignum.of_int 3) (Bignum.pred phi) in
    match Modular.inverse e ~m:phi with
    | Some d -> { e; d }
    | None -> go ()
  in
  go ()

let check_domain p m =
  if Bignum.sign m <= 0 || Bignum.compare m p >= 0 then
    invalid_arg "Pohlig_hellman: message outside [1, p-1]"

let encrypt { p; _ } { e; _ } m =
  check_domain p m;
  Obs.Metrics.incr "crypto.modexp";
  Modular.pow m e ~m:p

let decrypt { p; _ } { d; _ } c =
  check_domain p c;
  Obs.Metrics.incr "crypto.modexp";
  Modular.pow c d ~m:p

let encrypt_many { p; _ } { e; _ } ms =
  List.iter (check_domain p) ms;
  Obs.Metrics.incr ~by:(List.length ms) "crypto.modexp";
  Modular.pow_many ms e ~m:p

let decrypt_many { p; _ } { d; _ } cs =
  List.iter (check_domain p) cs;
  Obs.Metrics.incr ~by:(List.length cs) "crypto.modexp";
  Modular.pow_many cs d ~m:p

let encode { span; _ } payload =
  (* 2 + (H(payload) mod (p - 3)) lies in [2, p-2]; deterministic, so two
     nodes holding equal plaintexts produce the same group element. *)
  let h = Bignum.of_bytes_be (Sha256.digest payload) in
  Bignum.add Bignum.two (Bignum.erem h span)
