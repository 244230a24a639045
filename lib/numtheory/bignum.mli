(** Arbitrary-precision signed integers.

    Pure-OCaml implementation (no C stubs, no [zarith]) used by every
    cryptographic substrate in this repository: Pohlig–Hellman commutative
    encryption, Shamir secret sharing and the RSA-style one-way
    accumulator all compute over multi-hundred-bit moduli.

    Magnitudes are little-endian arrays of 26-bit limbs, so every
    intermediate product fits comfortably in a 63-bit OCaml [int].
    Division is Knuth's Algorithm D; multiplication switches from
    schoolbook to Karatsuba above a size threshold. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in an OCaml [int]. *)

val to_int_opt : t -> int option

val of_string : string -> t
(** Decimal, with optional leading ["-"]; [0x]-prefixed hex also accepted.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val of_hex : string -> t
(** Hexadecimal (no [0x] prefix required, case-insensitive). *)

val to_hex : t -> string
(** Lower-case hexadecimal of the magnitude, no [0x] prefix, with a
    ["-"] prefix for negatives; ["0"] for zero. *)

val of_bytes_be : string -> t
(** Big-endian unsigned byte-string interpretation (as used when hashing). *)

val to_bytes_be : t -> string
(** Minimal big-endian unsigned byte string; [""] for zero.
    @raise Invalid_argument on negative values. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div_rem : t -> t -> t * t
(** Truncated division, like OCaml's [( / )] and [( mod )] on [int]:
    the remainder has the sign of the dividend.
    @raise Division_by_zero if the divisor is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: [erem a m] is in [\[0, |m|)].  This is the
    operation used throughout the modular-arithmetic layer. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

val pow : t -> int -> t
(** [pow b e] for [e >= 0].  @raise Invalid_argument on negative [e]. *)

(** {1 Bit operations} *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val test_bit : t -> int -> bool
(** Bit [i] of the magnitude (i.e. of [abs t]). *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (sign preserved). *)

val is_even : t -> bool
val is_odd : t -> bool

val logand : t -> t -> t
(** Bitwise AND of magnitudes of non-negative values.
    @raise Invalid_argument on negative operands. *)

val logor : t -> t -> t
val logxor : t -> t -> t

(** {1 Infix operators}

    Opened locally as [Bignum.Infix.(...)] in computation-heavy code. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit

(** {1 Limb access}

    For word-level algorithms (Montgomery CIOS) that need to bypass the
    allocation cost of composed bignum operations. *)

val limb_bits : int
(** Bits per limb (26). *)

val to_limbs : t -> int array
(** Little-endian magnitude limbs (a copy; no leading zeros; empty for
    zero).  @raise Invalid_argument on negative values. *)

val of_limbs : int array -> t
(** Non-negative value from little-endian limbs; leading zeros allowed.
    @raise Invalid_argument if a limb is outside [\[0, 2^26)]. *)
