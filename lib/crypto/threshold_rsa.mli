(** (k, n)-threshold RSA signatures (Shoup-style, simplified trusted
    dealer).

    Paper §2: "DLA nodes use secure multiparty computations, {e threshold
    signature} and distributed majority agreement to provide trusted and
    reliable auditing."  A cluster-issued statement (an audit verdict, a
    membership decision) is valid only if at least [k] of the [n] DLA
    nodes contributed — no single node can sign on the cluster's behalf.

    Construction: RSA over a product of safe primes; the signing
    exponent [d] is Shamir-shared over [Z_m] ([m = p'·q'], the order of
    the squares subgroup); partials are [x^(2Δ·s_i)] with [Δ = n!]; the
    combiner interpolates in the exponent with integer Lagrange
    coefficients and removes the [4Δ²] factor with Bézout, so the result
    verifies against the *plain* RSA equation [σ^e = H(m)² mod n].

    The dealer is trusted at setup (key generation), matching the
    paper's cluster-bootstrap trust model; signing requires no dealer. *)

open Numtheory

type params = private {
  n : Bignum.t;
  e : Bignum.t;
  k : int;  (** threshold *)
  parties : int;
  delta : Bignum.t;  (** parties! *)
}

type share = private { index : int; value : Bignum.t; params : params }
(** One node's secret key share (index is 1-based). *)

type partial = { index : int; value : Bignum.t }

val deal : Prng.t -> bits:int -> k:int -> parties:int -> params * share list
(** Generate the key and deal one share per party.
    @raise Invalid_argument unless [1 <= k <= parties] and
    [bits >= 32].  Safe-prime generation makes large [bits] slow;
    128–256 are practical here. *)

val partial_sign : share -> string -> partial
(** One node's partial [x^(2Δ·sᵢ)].  Every party signs the same digest
    base [x], so the power runs through the fixed-base window table
    ({!Numtheory.Modular.pow_base}) — shares after the first reuse it. *)

val partial_sign_all : share list -> string -> partial list
(** All partials for one message: the digest base is computed once and
    the shared window table amortized across the whole share list.
    Partials are identical to mapping {!partial_sign}. *)

val combine : params -> string -> partial list -> (Bignum.t, string) result
(** Interpolate [>= k] distinct partials into a full signature; the
    result is verified internally, so corrupt or insufficient partials
    yield [Error] rather than a bogus signature.  The Lagrange
    interpolation in the exponent and the Bézout cleanup both run as
    simultaneous multi-exponentiations ({!Numtheory.Modular.multi_pow}),
    sharing one squaring chain across the partials. *)

val verify : params -> string -> Bignum.t -> bool
(** Plain RSA check: [σ^e = H(msg)^2 mod n]. *)
