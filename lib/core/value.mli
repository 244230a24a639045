(** Typed attribute values carried in audit-log records.

    The paper's example log (Table 1) mixes timestamps, identifiers,
    protocol names, counters and money amounts; we type them so that the
    query layer knows which comparisons are meaningful and which SMC
    primitive evaluates them across nodes (blinded order comparison needs
    a numeric embedding; strings support equality only). *)

type t =
  | Int of int  (** counters, sizes, ports *)
  | Money of int  (** fixed-point currency, in cents: 23.45 = 2345 *)
  | Time of int  (** seconds since epoch *)
  | Str of string  (** identifiers, protocol names, free text *)

val compare : t -> t -> int
(** Total order; values of different kinds order by kind (so sets and
    maps work), values of the same kind by natural order. *)

val equal : t -> t -> bool

val kind : t -> string

(** {1 Comparison classes}

    The query layer compares values by *class*, not constructor: [Int]
    and [Time] are both plain integers (so [time > 50] works with an
    integer literal), [Money] is its own class (its integers are cents —
    comparing them against plain ints would be a unit error), and [Str]
    is its own class. *)

val comparison_class : t -> string
(** ["num"], ["money"] or ["str"]. *)

val comparable : t -> t -> bool
(** Same comparison class. *)

val compare_semantic : t -> t -> int
(** Order within a comparison class ([Int 5] equals [Time 5]).
    @raise Invalid_argument when the values are not {!comparable}. *)

val money_of_float : float -> t
(** Convenience: [money_of_float 23.45 = Money 2345] (rounded). *)

val to_string : t -> string
(** Display form; [Money 2345] prints as ["23.45"]. *)

val to_wire : t -> string
(** Canonical unambiguous byte form used for hashing (accumulator,
    commutative-cipher encoding).  Injective across kinds. *)

val of_wire : string -> t
(** Inverse of {!to_wire}.  @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit
