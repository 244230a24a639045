(** Audit-log attributes (paper §4: "Attributes in I can be well known,
    such as time, id, pid, salary, price, etc., or undefined (denoted as
    C1, C2, … Cn)").

    Undefined attributes are abstract names meaningful only to the
    application subsystem by private agreement; raising their number
    raises store confidentiality (paper §5, the [v] term of eq 10). *)

type t =
  | Defined of string  (** well-known name, e.g. ["time"], ["id"] *)
  | Undefined of int  (** paper's C1, C2, …; [Undefined 1] prints "C1" *)

val compare : t -> t -> int
val equal : t -> t -> bool

val defined : string -> t
(** Normalizes to lowercase.  @raise Invalid_argument on empty names. *)

val undefined : int -> t
(** @raise Invalid_argument unless the index is >= 1. *)

val is_undefined : t -> bool

val of_string : string -> t
(** ["C7"] parses as [Undefined 7]; anything else is [Defined]
    (lowercased). *)

val to_string : t -> string
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
