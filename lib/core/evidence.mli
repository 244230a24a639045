(** Undeniable evidence for anonymous DLA membership (paper §4.2,
    Figures 6–7, ref [30]).

    Mechanics, following the e-coin double-spend paradigm the paper
    invokes:

    - The credential authority issues each prospective member a {e token}
      bound to a pseudonym.  The member's true identity is escrowed in
      the token as [k] pairs of committed shares [(s0_i, s1_i)] with
      [s0_i XOR s1_i = identity-block].
    - Using the token — i.e. exercising the *single-use* invitation
      authority to admit a new member — forces the holder to answer a
      challenge derived from the transaction: for each challenge bit it
      must open one share of the corresponding pair.
    - One use therefore reveals nothing (each pair loses one random-
      looking half).  Two uses answer two different challenges, which
      differ in some bit position with overwhelming probability; the two
      opened halves of that pair XOR to the identity block — the cheater
      is exposed ("Doing so will subject P_y to exposure of its true
      identity and its misconduct"). *)

val pair_count : int
(** k, the number of escrow pairs (challenge bits). *)

type token = private {
  pseudonym : string;
  commitments : (Crypto.Commitment.t * Crypto.Commitment.t) array;
  mac : string;  (** authority MAC over pseudonym and commitments *)
}

type secrets
(** The token holder's share openings; never transmitted wholesale. *)

type piece = {
  inviter : string;  (** pseudonym *)
  invitee : string;  (** pseudonym *)
  policy_proposal : string;  (** PP of Figure 7 *)
  service_commitment : string;  (** SC of Figure 7 — the r-bound terms *)
  challenge : bool array;  (** derived, not chosen *)
  responses : Crypto.Commitment.opening array;
      (** one opened share per challenge bit *)
  inviter_token : token;
}

(** The credential authority: issues tokens, verifies MACs, and maps a
    recovered identity block back to the enrolled identity. *)
module Authority : sig
  type t

  val create : seed:int -> t

  val issue : t -> identity:string -> token * secrets
  (** Fresh pseudonym and escrow pairs for [identity]. *)

  val token_valid : t -> token -> bool

  val identity_of_block : t -> string -> string option
  (** Resolve a recovered escrow block to the enrolled identity. *)
end

val make_piece :
  inviter_token:token ->
  inviter_secrets:secrets ->
  invitee:string ->
  pp:string ->
  sc:string ->
  piece

val verify_piece : Authority.t -> piece -> (unit, string) result
(** Checks the token MAC, the challenge derivation, and every response
    opening against the committed pair. *)

val recover_identity_block : piece -> piece -> string option
(** Given two pieces by the same inviter pseudonym answering different
    challenges, XOR the complementary shares at a differing bit position
    to expose the identity block.  [None] if the pieces don't implicate
    anyone (different inviters, or identical challenges). *)
