(** Plain RSA signatures (hash-then-sign), from scratch on the bignum
    substrate.

    Used directly for node-level signing and as the base scheme of
    {!Threshold_rsa}.  The digest is embedded as a quadratic residue
    ([H(m)^2 mod n]) so the threshold scheme's combination algebra (which
    works in the squares subgroup) verifies against the very same
    equation. *)

open Numtheory

type public = private { n : Bignum.t; e : Bignum.t }
type secret = private { d : Bignum.t; public : public }

val generate : Prng.t -> bits:int -> secret
(** Fresh keypair with modulus of roughly [bits] bits.  The public
    exponent is 65537; the modulus is regenerated until φ(n) is coprime
    with it.  @raise Invalid_argument for [bits < 16]. *)

val public : secret -> public

val digest_to_group : public -> string -> Bignum.t
(** [H(msg)^2 mod n] — the signed representative. *)

val sign : secret -> string -> Bignum.t

val sign_many : secret -> string list -> Bignum.t list
(** Batch signing under the one secret exponent: signatures identical
    to mapping {!sign}, with the exponent's window recoding and
    Montgomery scratch shared across the batch
    ({!Numtheory.Modular.pow_many}). *)

val verify : public -> string -> Bignum.t -> bool

(** {1 Raw trapdoor permutation}

    Textbook RSA on group elements — no hashing, no padding.  Only for
    protocols that need the bare permutation (Yao's millionaire
    protocol encrypts a {e random} element, where rawness is sound). *)

val encrypt_raw : public -> Bignum.t -> Bignum.t
(** [m^e mod n].  @raise Invalid_argument outside [\[0, n)]. *)

val decrypt_raw : secret -> Bignum.t -> Bignum.t
(** [c^d mod n]. *)
