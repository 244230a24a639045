(** Audit-log records and transactions (paper §2, equations 1–5).

    A log record is [{glsn, {l_0 … l_h}}]: a cluster-assigned sequence
    number plus attribute/value pairs describing one event.  A
    transaction [T = {R_T, E_T, L_T, tsn, ttn}] groups the records of its
    events under a transaction sequence number and type number. *)

type t

val make :
  glsn:Glsn.t ->
  origin:Net.Node_id.t ->
  attributes:(Attribute.t * Value.t) list ->
  t
(** @raise Invalid_argument on duplicate attributes or an empty list. *)

val glsn : t -> Glsn.t
val origin : t -> Net.Node_id.t

val attributes : t -> (Attribute.t * Value.t) list
(** In attribute order. *)

val attribute_set : t -> Attribute.Set.t
val find : t -> Attribute.t -> Value.t option
val width : t -> int
(** Number of attributes — the [w] of eq 10. *)

val undefined_count : t -> int
(** Number of undefined (C_i) attributes — the [v] of eq 10. *)

val restrict : t -> Attribute.Set.t -> (Attribute.t * Value.t) list
(** The fragment of this record a node supporting the given attribute
    set stores (may be empty). *)

val to_wire : t -> string
(** Canonical byte serialization (sorted attributes), used for
    accumulator digests and integrity checks.  Injective. *)

val cell_to_string : Attribute.t * Value.t -> string
(** ["attr=value"] — the form in which a plaintext attribute cell is
    observed (ledger, transcript, exposure analysis). *)

val fragment_wire : glsn:Glsn.t -> (Attribute.t * Value.t) list -> string
(** Canonical serialization of a stored fragment, [Log_i] of §4.
    Reserved characters in values are percent-escaped, so the encoding
    is injective and invertible. *)

val fragment_of_wire : string -> Glsn.t * (Attribute.t * Value.t) list
(** Inverse of {!fragment_wire} (used by replica repair).
    @raise Invalid_argument on malformed input. *)

(** Transactions (eq 1): a specification name, a type number, a sequence
    number, and the records of the transaction's events. *)
module Transaction : sig
  type record := t
  type t = {
    tsn : int;  (** unique transaction sequence number *)
    ttn : int;  (** transaction type number *)
    records : record list;
  }

  val make : tsn:int -> ttn:int -> records:record list -> t
  val glsns : t -> Glsn.t list
end
