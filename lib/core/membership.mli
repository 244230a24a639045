(** DLA cluster membership growth by invitation (paper §4.2, Figure 6).

    The cluster starts from a founding member holding invitation
    authority from the credential authority.  Admission of each new node
    is a three-way handshake (Figure 7):

    + PP — the inviter proposes logging/auditing service policies;
    + SC — the invitee answers with the services it commits to provide;
    + RE — the inviter issues the evidence piece (which r-binds the
      negotiated terms) and *passes its invitation authority on*: after
      this, the inviter may not invite again.

    The state machine enforces single-use authority for honest members
    and provides a [rogue_invite] bypass so tests and demos can show the
    double-invite exposure working. *)

type t

type member = private {
  identity : string;  (** true identity — known only to the CA and us *)
  pseudonym : string;
  mutable has_invite_authority : bool;
}

val found :
  net:Net.Network.t -> authority_seed:int -> identity:string -> t
(** Create a cluster whose founding member holds invitation authority. *)

val authority : t -> Evidence.Authority.t
val members : t -> member list
(** In join order; the founder first. *)

val chain : t -> Evidence.piece list
(** The evidence chain, oldest first (e1, e2, … of Figure 6). *)

val invite :
  t ->
  inviter:string ->
  invitee_identity:string ->
  pp:string ->
  sc:string ->
  (member, string) result
(** Run the PP/SC/RE handshake.  Fails when the inviter is unknown or
    has already spent its invitation authority. *)

val rogue_invite :
  t ->
  inviter:string ->
  invitee_identity:string ->
  pp:string ->
  sc:string ->
  (member, string) result
(** Bypass the spent-authority check — a misbehaving P_y.  The resulting
    chain still verifies piece-by-piece, but {!detect_cheaters} exposes
    the inviter. *)

val verify_chain : t -> (unit, string) result
(** Every piece verifies and every invitee was admitted by a member that
    was already in the chain. *)

val detect_cheaters : t -> (string * string) list
(** [(pseudonym, true identity)] of every member that used its
    invitation authority more than once — recovered from the evidence
    alone via {!Evidence.recover_identity_block}. *)
