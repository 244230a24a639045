(** Value blinding for TTP-assisted comparisons (paper §3.2, §3.3).
    Only [Smc.Blind_compare] draws and applies these maps: =ₛ, Rankₛ
    and the audit path's cross atoms share its agree, submit and join
    steps.

    - {b Equality} (§3.2): a secret affine map [y ↦ (a*y + b) mod p]
      with [a ≠ 0], a bijection on Z_p for a prime [p], so a blind TTP
      compares images for equality without learning the originals.
    - {b Order} (§3.3): a secret strictly increasing map
      [y ↦ scale*y + offset].  A blind TTP can rank the images, and
      learns more than order: the gcd of one column's image differences
      is [scale] times the gcd of its value differences, almost always
      1, so the images expose every pairwise difference of the values
      (SECURITY.md limitation 3). *)

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
