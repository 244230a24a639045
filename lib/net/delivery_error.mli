(** Why a message did not reach its handler.

    The one drop-reason type of both engines, {!Network} and
    {!Runtime}.  {!to_string} renders each case identically to the
    historical strings ("source down", "destination down", "loss"), so
    anything that logs or ledgers a reason is byte-compatible; typed
    consumers (the reactor's {!Runtime.drops} breakdown, chaos
    assertions) match on the variant instead of parsing. *)

type t =
  | Source_down  (** the sender is crashed: nothing left its NIC *)
  | Destination_down  (** the receiver is crashed at delivery time *)
  | Loss  (** the link dropped it (probabilistic, seeded) *)
  | No_handler  (** delivered to a node with no handler installed *)

val all : t list
(** Every case, in rendering order — for exhaustive breakdown tables. *)

val to_string : t -> string
(** The historical reason string ("source down", "destination down",
    "loss", "no handler"). *)

val compare : t -> t -> int
val equal : t -> t -> bool
