open Numtheory

type public = { n : Bignum.t; e : Bignum.t }
type secret = { d : Bignum.t; public : public }

let public_exponent = Bignum.of_int 65537

let generate rng ~bits =
  if bits < 16 then invalid_arg "Rsa.generate: modulus too small";
  let rec go () =
    let n, p, q = Primes.rsa_modulus rng ~bits in
    let phi = Bignum.mul (Bignum.pred p) (Bignum.pred q) in
    match Modular.inverse public_exponent ~m:phi with
    | Some d -> { d; public = { n; e = public_exponent } }
    | None -> go ()
  in
  go ()

let public secret = secret.public

let digest_to_group { n; _ } msg =
  let h = Bignum.erem (Bignum.of_bytes_be (Sha256.digest msg)) n in
  Modular.mul h h ~m:n

let sign secret msg =
  let x = digest_to_group secret.public msg in
  Modular.pow x secret.d ~m:secret.public.n

let sign_many secret msgs =
  (* Fixed-exponent batch: one window recoding of [d] shared across
     the digests (the dual of the fixed-base table — here the bases
     vary and the exponent is long-lived). *)
  Modular.pow_many
    (List.map (digest_to_group secret.public) msgs)
    secret.d ~m:secret.public.n

let verify public msg signature =
  let x = digest_to_group public msg in
  Bignum.equal (Modular.pow signature public.e ~m:public.n) x

let encrypt_raw { n; e } m =
  if Bignum.sign m < 0 || Bignum.compare m n >= 0 then
    invalid_arg "Rsa.encrypt_raw: message outside [0, n)"
  else Modular.pow m e ~m:n

let decrypt_raw secret c = Modular.pow c secret.d ~m:secret.public.n
