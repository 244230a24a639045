(** Hash commitments.

    Building block for the evidence-chain handshake (paper §4.2,
    Figure 7): a party commits to its policy proposal / service
    commitment before identities are revealed, and the opening later
    proves the negotiated terms were not altered ("r-binding" of the
    service terms into the evidence piece). *)

type t
(** An opaque 32-byte commitment. *)

type opening = { value : string; nonce : string }

val commit : Numtheory.Prng.t -> string -> t * opening
(** Commit to a byte string with a fresh 32-byte nonce. *)

val verify : t -> opening -> bool

val equal : t -> t -> bool
val to_hex : t -> string
