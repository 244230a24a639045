(** Why a message did not reach its destination.

    {!Network}'s drop-reason type.  {!to_string} renders each case
    identically to the historical strings ("source down", "destination
    down", "loss"), so anything that logs or ledgers a reason is
    byte-compatible. *)

type t =
  | Source_down  (** the sender is crashed: nothing left its NIC *)
  | Destination_down  (** the receiver is crashed at delivery time *)
  | Loss  (** the link dropped it (probabilistic, seeded) *)

val to_string : t -> string
(** The historical reason string ("source down", "destination down",
    "loss"). *)
