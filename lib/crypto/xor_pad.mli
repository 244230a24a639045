(** Keyed XOR pad — the paper's toy commutative cipher.

    §3 of the paper notes that "the XOR Boolean logic with individual
    keys is a commutative cipher because XOR is a commutative operation".
    Each key deterministically expands (via HMAC-SHA256) to a
    [width_bits]-wide pad; encryption XORs the pad in, so encryptions
    under different keys trivially commute.

    It is *much* cheaper than Pohlig–Hellman but weaker: a node that sees
    two ciphertexts under the same key learns their XOR difference.  In
    one ∩ₛ run that is enough for the receiver to read every other
    party's set: one own element's encoding XOR its fully-encrypted
    image is the XOR of every pad (SECURITY.md limitation 2; the fix is
    an open ROADMAP item).  The benches compare both (DESIGN.md ablation
    "commutative cipher choice"). *)

open Numtheory

type params = private { width_bits : int }
type key

val params : width_bits:int -> params
(** @raise Invalid_argument unless [width_bits > 0]. *)

val generate_key : Numtheory.Prng.t -> params -> key

val encrypt : params -> key -> Bignum.t -> Bignum.t
(** Self-inverse: [decrypt] is the same operation.
    @raise Invalid_argument if the message exceeds [width_bits]. *)

val decrypt : params -> key -> Bignum.t -> Bignum.t

val encode : params -> string -> Bignum.t
(** Deterministic hash-embedding into [\[0, 2^width_bits)]. *)
