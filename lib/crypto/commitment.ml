type t = string

type opening = { value : string; nonce : string }

let hash ~nonce value = Sha256.digest (nonce ^ "\x01" ^ value)

let commit rng value =
  let nonce = Numtheory.Prng.bytes rng 32 in
  (hash ~nonce value, { value; nonce })

let verify t { value; nonce } = String.equal t (hash ~nonce value)

let equal = String.equal
let to_hex = Sha256.to_hex
