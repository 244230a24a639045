(** Secure set intersection ∩ₛ (paper §3.1, Figure 4).

    Each party encodes its local set into the shared commutative-cipher
    domain, encrypts under its own key and sends it around the ring; on
    receipt of a foreign set a party adds its own encryption layer and
    relays.  After [n-1] hops every set is encrypted by every party, and
    under a commutative cipher two fully-encrypted elements are equal iff
    their plaintexts are equal — so the intersection can be computed on
    ciphertexts.

    A receiver that owns one of the input sets can map matched
    ciphertexts back to plaintext through the correspondence with its own
    set (it knows its own elements); this mirrors the paper's "P_w gets
    to know which items are in the intersection set, if nodes in P_w have
    access to the raw log data".

    The ring pass is the one in the library: secure union ({!Set_union},
    §3.4) runs it too, under its own protocol name. *)

open Numtheory

type party = { node : Net.Node_id.t; set : string list }

type result = {
  intersection : string list;
      (** Plaintext intersection, sorted; resolved via the receiver's own
          correspondence table. *)
  encrypted_by_all : (Net.Node_id.t * Bignum.t list) list;
      (** Per origin party, its set after all encryption layers — the
          final state in Figure 4. *)
}

type ring = {
  own_sets : (Net.Node_id.t * string list) list;
      (** Per party, in party order, its deduplicated plaintext set. *)
  fully_encrypted : (Net.Node_id.t * Bignum.t list) list;
      (** Per origin party, in party order, its set under every
          party's layer, as delivered to the receiver. *)
  keypair_of : Net.Node_id.t -> Crypto.Commutative.keypair;
      (** Each party's key for this pass (∪ₛ's decode ring peels with
          it). *)
}

val ring_pass :
  protocol:string ->
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  receiver:Net.Node_id.t ->
  party list ->
  ring
(** The ring-encryption pass of Figure 4, written for [protocol] ([p]
    below): each party records its own set ([Plaintext], tag
    [p:own-set]) and encrypts it (span [smc.p.transform]); [n-1] relay
    hops add the other layers (span [smc.p.exchange], label [p:relay]);
    every fully-encrypted set goes to [receiver] (span [smc.p.collect],
    label [p:collect]).  Each hop and the collect end a round labelled
    [p].  The caller opens the enclosing [smc.p] span.
    @raise Invalid_argument naming the node when a node is listed
    twice: its layer would go on some sets twice, and equal elements
    would stop matching. *)

val run :
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  receiver:Net.Node_id.t ->
  party list ->
  result
(** @raise Invalid_argument with fewer than 2 parties, when the
    [receiver] is not among the parties (it needs raw data for plaintext
    resolution), or when a node is listed twice. *)

val cardinality :
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  receiver:Net.Node_id.t ->
  party list ->
  int
(** Size-only variant — "secure computation of the size of set
    intersection", the very use-case §3 cites from ref [20].  Identical
    ring pass, but the receiver only counts matching ciphertexts and
    never resolves plaintexts, so it may be an outside observer (it need
    not be a party, unlike {!run}).
    @raise Invalid_argument with fewer than 2 parties or when a node is
    listed twice. *)

val naive :
  net:Net.Network.t ->
  coordinator:Net.Node_id.t ->
  party list ->
  string list
(** Non-private baseline: every party ships its raw set to a coordinator
    that intersects in the clear.  Used as the correctness oracle in
    tests and the privacy/cost contrast in benches. *)
