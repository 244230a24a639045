(** Pohlig–Hellman exponentiation cipher (paper §3, ref [21]).

    Over a safe prime [p], encryption is [c = m^e mod p] and decryption
    [m = c^d mod p] with [e*d = 1 mod (p-1)].  Because exponents compose
    multiplicatively, encryptions under different keys commute —
    equations (6) and (7) of the paper — which is what lets DLA nodes
    relay and stack encryptions in any order during secure set
    intersection and union. *)

open Numtheory

type params = private { p : Bignum.t; span : Bignum.t }
(** The shared group: a prime [p] such that [p-1] has a large prime
    factor (we generate safe primes, [p = 2q+1]).  [span = p - 3] is
    precomputed for {!encode} so the hot encoding loop allocates no
    per-call constants. *)

type key = private { e : Bignum.t; d : Bignum.t }

val generate_params : Numtheory.Prng.t -> bits:int -> params
(** Fresh safe-prime parameters.  All cluster members share [params]. *)

val generate_key : Numtheory.Prng.t -> params -> key
(** Random [e] coprime to [p-1], with matching [d]. *)

val encrypt : params -> key -> Bignum.t -> Bignum.t
(** @raise Invalid_argument if the message is outside [\[1, p-1\]]. *)

val decrypt : params -> key -> Bignum.t -> Bignum.t

val encrypt_many : params -> key -> Bignum.t list -> Bignum.t list
(** Batch encryption under one key: the exponent windows are recoded
    once and the Montgomery scratch state shared across the list
    ({!Numtheory.Modular.pow_many}, which also farms large batches
    across an ambient {!Numtheory.Domain_pool}).  Every ∩ₛ/∪ₛ ring hop
    re-encrypts through this or {!decrypt_many}.  Ciphertexts are
    identical to mapping {!encrypt}; [crypto.modexp] is incremented by
    the batch length, so §3 cost counts are unchanged.
    @raise Invalid_argument if any message is outside [\[1, p-1\]]. *)

val decrypt_many : params -> key -> Bignum.t list -> Bignum.t list
(** Batch counterpart of {!decrypt}; same guarantees as
    {!encrypt_many}. *)

val encode : params -> string -> Bignum.t
(** Deterministic hash-embedding of an arbitrary byte string into
    [\[2, p-2\]]: equal strings map to equal group elements, so
    commutatively-encrypted equality comparisons work on any payload. *)
