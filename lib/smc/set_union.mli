(** Secure set union ∪ₛ (paper §3.4).

    The ring-encryption pass is intersection's own: ∪ₛ calls
    {!Set_intersection.ring_pass} under the protocol name [union]
    (spans [smc.union.*], labels [union:*]).  The receiver then keeps
    one copy of each distinct fully-encrypted element and has each kept
    ciphertext peeled by every party in turn (a decode ring).  The
    receiver ends up with the plaintext union but — because the kept
    ciphertexts are shuffled before decoding — without learning which
    party contributed which element ("without revealing the owner(s) of
    each of the items"). *)

type party = Set_intersection.party = { node : Net.Node_id.t; set : string list }

val run :
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  rng:Numtheory.Prng.t ->
  receiver:Net.Node_id.t ->
  party list ->
  string list
(** Sorted plaintext union, delivered to [receiver].
    @raise Invalid_argument with fewer than 2 parties or when a node is
    listed twice. *)

val cardinality :
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  receiver:Net.Node_id.t ->
  party list ->
  int
(** Size-only variant (ref [20]): the ring pass runs as usual but the
    decode ring is skipped entirely — the receiver just counts distinct
    fully-encrypted elements, learning |S1 ∪ … ∪ Sn| and nothing else.
    @raise Invalid_argument with fewer than 2 parties or when a node is
    listed twice. *)

val naive :
  net:Net.Network.t -> coordinator:Net.Node_id.t -> party list -> string list
(** Non-private baseline: raw sets shipped to a coordinator. *)
