(** Probabilistic primality testing and prime generation.

    The Pohlig–Hellman cipher (paper §3, ref [21]) needs a prime [p]
    such that [p - 1] has a large prime factor; we generate *safe primes*
    ([p = 2q + 1] with [q] prime), which satisfy that requirement in the
    strongest form.  The one-way accumulator (paper §4.1, ref [26]) needs
    an RSA modulus [n = p*q]. *)

val is_probable_prime : Prng.t -> Bignum.t -> bool
(** Miller–Rabin with 24 random witnesses (error probability below
    4^-24), preceded by small-prime trial division.  Every function
    below tests its candidates with it. *)

val random_prime : Prng.t -> bits:int -> Bignum.t
(** Uniform random prime with exactly [bits] bits (top bit set).
    Requires [bits >= 2]. *)

val random_safe_prime : Prng.t -> bits:int -> Bignum.t
(** Safe prime [p = 2q + 1] with [p] of exactly [bits] bits.
    Requires [bits >= 4].  Expensive for large [bits] — benches default
    to 128–256-bit moduli for sweeps. *)

val next_prime : Prng.t -> Bignum.t -> Bignum.t
(** Smallest probable prime strictly greater than the argument. *)

val rsa_modulus : Prng.t -> bits:int -> Bignum.t * Bignum.t * Bignum.t
(** [rsa_modulus rng ~bits] is [(n, p, q)] with [n = p*q] of roughly
    [bits] bits, [p <> q] random primes of [bits/2] bits each. *)

val small_primes : int list
(** The primes below 1000, used for trial division and as fixture data. *)
