(** Value blinding for TTP-assisted comparisons (paper §3.2, §3.3).

    Two flavours, matching the two uses in the paper:

    - {b Equality blinding} (§3.2): parties agree on a secret random
      affine map [y ↦ (a*y + b) mod p] with [a ≠ 0].  The map is a
      bijection on Z_p, so a blind TTP can compare transformed values for
      equality without learning the originals.

    - {b Order blinding} (§3.3): parties agree on a secret strictly
      increasing map [y ↦ scale*y + offset] over the integers.  A blind
      TTP can then compute max / min / ranks of the transformed values.
      It learns more than order: the gcd of the image differences is
      [scale] times the gcd of the value differences, which is almost
      always 1, so the images of one column expose the scale and every
      pairwise difference of its values (SECURITY.md limitation 3; the
      fix is an open ROADMAP item). *)

open Numtheory

type affine = private { a : Bignum.t; b : Bignum.t; p : Bignum.t }

val generate_affine : Numtheory.Prng.t -> p:Bignum.t -> affine
(** Random [a ∈ \[1, p)], [b ∈ \[0, p)]. *)

val apply_affine : affine -> Bignum.t -> Bignum.t

val apply_affine_many : affine -> Bignum.t list -> Bignum.t list
(** Blind a whole list under one map; results and counter totals are
    identical to mapping {!apply_affine}. *)

type monotone = private { scale : Bignum.t; offset : Bignum.t }

val generate_monotone : Numtheory.Prng.t -> bits:int -> monotone
(** Random positive [scale] and [offset] of roughly [bits] bits. *)

val apply_monotone : monotone -> Bignum.t -> Bignum.t

val apply_monotone_many : monotone -> Bignum.t list -> Bignum.t list
(** Blind a whole list under one map; results and counter totals are
    identical to mapping {!apply_monotone}. *)
