(** Montgomery modular multiplication and exponentiation.

    For an odd modulus [m] of k limbs, work in the residue
    representation [x·R mod m] with [R = 2^(26k)]: each product is then
    reduced with REDC (two multiplications, a mask and a shift) instead
    of a Knuth division.  Exponentiation amortizes the one-time domain
    setup over hundreds of multiplications, which speeds every
    cryptographic primitive in this repository (Pohlig–Hellman,
    accumulator, RSA, Paillier) — {!Modular.pow} dispatches here
    automatically; the modexp ablation bench compares the two paths.

    Every path below runs on one multiplication kernel, a
    product-scanning REDC: each column of limb products and reduction
    terms is summed in one native int and carries once.  The kernel
    allocates nothing, and its output may alias either operand, so
    exponentiations square and multiply their accumulator in place.
    It reads limbs without bounds checks; that is safe because every
    array it sees has exactly the context's k limbs: the arrays are
    built inside this module at that width, and the interface takes
    and returns bignums only.  The kernel's column sums are bounded to
    fit a native int only up to {!max_modulus_bits}, so {!create}
    rejects wider moduli. *)

type ctx

val max_modulus_bits : int
(** The widest modulus {!create} accepts: 512 limbs of 26 bits
    (13,312 bits), the largest width at which the kernel's worst-case
    column sum fits a native int. *)

val create : Bignum.t -> ctx
(** Precompute the domain constants for an odd modulus [m > 1].
    @raise Invalid_argument on even or tiny moduli, and on moduli wider
    than {!max_modulus_bits}. *)

val modulus : ctx -> Bignum.t

val pow : ctx -> Bignum.t -> Bignum.t -> Bignum.t
(** [pow ctx b e] is [b^e mod m] for [e >= 0].
    @raise Invalid_argument on negative exponents. *)

type powers
(** A fixed-exponent exponentiation plan: the exponent's 4-bit window
    digits recoded once, plus every scratch array a single
    exponentiation needs (16-entry table, accumulator, base buffer)
    preallocated for reuse across a batch of bases.  Ring encryption in
    the relaxed-SMC protocols raises whole sets to one key exponent, so
    the per-call recoding and allocation amortize to zero. *)

val powers : ctx -> Bignum.t -> powers
(** [powers ctx e] prepares a plan for computing [b^e mod m] over many
    bases [b].
    @raise Invalid_argument on a negative exponent. *)

val pow_with : powers -> Bignum.t -> Bignum.t
(** [pow_with plan b] is [b^e mod m] — value-identical to
    [pow ctx b e] ({!pow} itself is a batch of one).  It allocates only
    the reduced base's limbs and the result; the multiplications
    between them allocate nothing. *)

val pow_many : powers -> Bignum.t list -> Bignum.t list
(** [pow_many plan bs] maps {!pow_with} over [bs], reusing the plan's
    scratch state; order is preserved. *)

val mul : ctx -> Bignum.t -> Bignum.t -> Bignum.t
(** One modular multiplication through the Montgomery domain (includes
    conversion; use {!pow} for chains). *)

(** {2 Fixed-base windowed precomputation}

    The dual of the fixed-exponent {!powers} plan: for a long-lived
    base (Pohlig–Hellman generator, accumulator seed, threshold-RSA
    digest) precompute [b^(d·16^j)·R] for every 4-bit window digit.
    An exponentiation then costs one table multiplication per non-zero
    window and zero squarings.  Tables grow on demand as wider
    exponents arrive and are cached LRU by {!Modular.pow_base}. *)

type base_table

val base_table : ctx -> Bignum.t -> base_table
(** Start an (initially empty) window table for base [b]; rows are
    materialized lazily by {!pow_base}. *)

val pow_base : base_table -> Bignum.t -> Bignum.t
(** [pow_base t e] is [b^e mod m] for [e >= 0] — value-identical to
    [pow ctx b e].
    @raise Invalid_argument on a negative exponent. *)

val table_modulus : base_table -> Bignum.t
val table_base : base_table -> Bignum.t
(** Cache keys: the table's modulus and canonical base [b mod m]. *)

val table_windows : base_table -> int
(** Number of 4-bit window rows materialized so far (monotone; grows
    with the widest exponent seen). *)

(** {2 Simultaneous multi-exponentiation (Shamir's trick)}

    Joint windowing shares one squaring chain across several bases:
    [a^e1·b^e2] costs barely more than the wider single
    exponentiation.  Used by accumulator witness verification and
    threshold-RSA share combination. *)

val multi_pow : ctx -> (Bignum.t * Bignum.t) list -> Bignum.t
(** [multi_pow ctx \[(b1, e1); ...\]] is [Π bi^ei mod m], interleaving
    subset-product tables in chunks of up to 6 bases over a single
    shared squaring chain.  [multi_pow ctx \[\] = 1].
    @raise Invalid_argument on negative exponents. *)
