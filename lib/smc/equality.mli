(** Secure equality checking =ₛ (paper §3.2).

    Randomized-mapping variant: the two holders agree on a secret random
    affine bijection [y ↦ (a·y + b) mod p] and submit only transformed
    values to a blind TTP, which compares them and returns the verdict.
    The TTP learns one bit (plus the agreed modulus) and never sees the
    originals.  {!via_ttp} and {!via_mapping_table} run
    {!Blind_compare.pair} under its [Equality] map: the steps Rankₛ and
    the audit path's cross atoms run too. *)

open Numtheory

val via_ttp :
  net:Net.Network.t ->
  rng:Prng.t ->
  p:Bignum.t ->
  ttp:Net.Node_id.t ->
  left:Net.Node_id.t * Bignum.t ->
  right:Net.Node_id.t * Bignum.t ->
  bool
(** [p] must be prime, or distinct values can compare equal; values
    must lie in [\[0, p)].  @raise Invalid_argument for a value outside. *)

val via_intersection :
  net:Net.Network.t ->
  scheme:Crypto.Commutative.scheme ->
  left:Net.Node_id.t * string ->
  right:Net.Node_id.t * string ->
  bool
(** The paper's alternative: secure set intersection on singleton sets
    ("when the set size of S_i = 1 ... could be used for secure equality
    comparison").  The two nodes must differ: each is one party of the
    ∩ₛ ring.
    @raise Invalid_argument when [left] and [right] name the same
    node. *)

val via_mapping_table :
  net:Net.Network.t ->
  rng:Prng.t ->
  ttp:Net.Node_id.t ->
  domain:string list ->
  left:Net.Node_id.t * string ->
  right:Net.Node_id.t * string ->
  bool
(** §3.2 verbatim: "two nodes securely agree upon a random mapping
    table, which transforms (X_R, X_M) to a number space (Y_R, Y_M)",
    then affine-blind the mapped numbers and let the TTP compare.  The
    shared [domain] enumerates the values' finite universe (both values
    must belong to it).

    Cost: the ["equality:table"] message and a round, then {!via_ttp}'s
    5 messages and 3 rounds.  The table and the affine map (which hides
    the indices from the TTP) are two secrets, so both agreements are
    paid for.
    @raise Invalid_argument if a value is outside the domain. *)
