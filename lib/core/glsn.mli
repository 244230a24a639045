(** Global log sequence numbers (paper §2, eq 5; §4: "the glsn is
    uniquely assigned by DLA cluster").

    A glsn is a monotonically increasing integer rendered in the paper's
    hex style (139aef78, 139aef79, …).  The allocator models the
    cluster-wide assignment service. *)

type t [@@immediate]
(** Immediate, so a glsn array holds its glsns unboxed. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Lowercase hex, as in Table 1. *)

val of_string : string -> t
(** @raise Invalid_argument on non-hex input. *)

val to_int : t -> int
module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** The cluster-wide allocation service. *)
module Allocator : sig
  type glsn := t
  type t

  val create : ?start:int -> unit -> t
  (** Default start matches the paper's Table 1 (0x139aef78). *)

  val next : t -> glsn
  (** Strictly monotonic. *)

  val issued : t -> int
  (** How many glsn's have been allocated. *)
end
