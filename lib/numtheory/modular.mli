(** Modular arithmetic over [Bignum.t].

    All functions reduce into the canonical residue range [\[0, m)].
    This layer is the workhorse of the Pohlig–Hellman commutative cipher
    (modular exponentiation), Shamir reconstruction (modular inverse of
    Lagrange denominators) and the one-way accumulator. *)

val normalize : Bignum.t -> m:Bignum.t -> Bignum.t
(** Canonical residue of any integer modulo [m > 0]. *)

val add : Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t
val sub : Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t
val mul : Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t

val pow : Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t
(** [pow b e ~m] is [b^e mod m] for [e >= 0].  Dispatches to Montgomery
    exponentiation for odd moduli of 64 to {!Montgomery.max_modulus_bits}
    bits with non-trivial exponents (the common cryptographic case) and
    falls back to classic square-and-multiply otherwise.
    @raise Invalid_argument on a negative exponent. *)

val pow_many : Bignum.t list -> Bignum.t -> m:Bignum.t -> Bignum.t list
(** [pow_many bs e ~m] is [List.map (fun b -> pow b e ~m) bs], but on
    the Montgomery path the exponent windows are recoded and the scratch
    arrays allocated once for the whole batch ({!Montgomery.powers}).
    When a multi-domain {!Domain_pool} is ambient
    ({!Domain_pool.current}), large batches are additionally split into
    contiguous chunks farmed across the pool, each chunk under a
    private context.  Results are value-identical to the
    element-at-a-time path at any pool width, so protocol transcripts
    built over it are byte-identical. *)

val pow_base : base:Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t
(** [pow_base ~base e ~m] is [pow base e ~m] through a fixed-base
    window table ({!Montgomery.pow_base}) cached LRU by
    [(m, base mod m)] — zero squarings per call once the table is
    warm, so repeated powers of a long-lived base (an accumulator
    seed, a Pohlig–Hellman generator, a threshold-RSA digest) cost a
    handful of multiplications each.  Counters:
    [crypto.mont.fixed_base_hit] / [fixed_base_miss] /
    [fixed_base_table_create].  Falls back to the generic {!pow}
    dispatch for even, single-limb or over-wide moduli and for
    exponents wider than ~16k bits (where the table build would
    dominate).
    Value-identical to {!pow} in every case.
    @raise Invalid_argument on a negative exponent. *)

val multi_pow : (Bignum.t * Bignum.t) list -> m:Bignum.t -> Bignum.t
(** [multi_pow \[(b1, e1); ...\] ~m] is [Π bi^ei mod m] via Shamir's
    trick ({!Montgomery.multi_pow}): one shared squaring chain for all
    bases (counter [crypto.mont.multi_pow]).  Falls back to the naive
    product of independent powers for non-Montgomery moduli.
    [multi_pow \[\] ~m = 1 mod m].
    @raise Invalid_argument on negative exponents. *)

val pow_classic : Bignum.t -> Bignum.t -> m:Bignum.t -> Bignum.t
(** The division-based square-and-multiply path, exposed for the modexp
    ablation bench and as the reference in tests. *)

val mont_ctx_opt : Bignum.t -> Montgomery.ctx option
(** The shared LRU-cached Montgomery context for [m], or [None] when
    [m] is outside the Montgomery domain shape (even, < 64 bits, or
    wider than {!Montgomery.max_modulus_bits}).
    Consumers holding {!Montgomery.resident} chains (the SMC ring
    passes) use this so their in-domain work shares contexts — and
    cache counters — with {!pow}. *)

val reset_mont_cache : unit -> unit
(** Drop every cached Montgomery context and fixed-base table.  The
    caches are process-global; benchmarks and cache-behavior tests
    reset them so their [crypto.mont.*] counters are independent of
    what ran before. *)

val mont_cache_capacity : unit -> int
(** Current LRU capacity (contexts and fixed-base tables each retain
    this many entries). *)

val set_mont_cache_capacity : int -> unit
(** Resize both LRUs (clamped to >= 1), evicting oldest entries
    immediately if shrinking.  Benchmarks size this from the number of
    live moduli in the workload; the default is 8. *)

val gcd : Bignum.t -> Bignum.t -> Bignum.t

val extended_gcd : Bignum.t -> Bignum.t -> Bignum.t * Bignum.t * Bignum.t
(** [extended_gcd a b = (g, x, y)] with [g = gcd a b = a*x + b*y]. *)

val inverse : Bignum.t -> m:Bignum.t -> Bignum.t option
(** Multiplicative inverse mod [m], or [None] when [gcd a m <> 1]. *)

val inverse_exn : Bignum.t -> m:Bignum.t -> Bignum.t
(** @raise Invalid_argument when no inverse exists. *)

val crt : (Bignum.t * Bignum.t) list -> Bignum.t * Bignum.t
(** [crt \[(r1, m1); (r2, m2); ...\]] solves the simultaneous congruences
    [x = ri mod mi] for pairwise-coprime moduli, returning
    [(x, m1*m2*...)] with [0 <= x < product].
    @raise Invalid_argument when moduli are not coprime. *)

val jacobi : Bignum.t -> Bignum.t -> int
(** Jacobi symbol [(a/n)] for odd positive [n]; result in [{-1, 0, 1}]. *)
