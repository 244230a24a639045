(** Secure distributed sorting: Maxₛ, Minₛ, Rankₛ (paper §3.3).

    All n parties agree on a secret strictly increasing transform
    [y ↦ scale·y + offset] and submit transformed values to a blind TTP.
    Order is preserved, so the TTP can announce who holds the maximum /
    minimum and each party's rank from the blinded images alone
    (Definition 1's permitted "secondary form" disclosure; SECURITY.md
    limitation 3 says what else they reveal).  Both run {!Blind_compare}
    under its [Order] map: {!run} its agree, blind and submit steps,
    {!comparisons} its {!Blind_compare.pair}. *)

open Numtheory

type party = { node : Net.Node_id.t; value : Bignum.t }

type verdict = {
  max_holder : Net.Node_id.t;
  min_holder : Net.Node_id.t;
  ranks : (Net.Node_id.t * int) list;
      (** Rank 1 = smallest; ties share the lower rank. *)
}

val run :
  net:Net.Network.t ->
  rng:Prng.t ->
  ttp:Net.Node_id.t ->
  party list ->
  verdict
(** @raise Invalid_argument with fewer than 2 parties. *)

val comparisons :
  net:Net.Network.t ->
  rng:Prng.t ->
  ttp:Net.Node_id.t ->
  left:Net.Node_id.t * Bignum.t ->
  right:Net.Node_id.t * Bignum.t ->
  int
(** Blind three-way comparison of two private values: -1, 0 or 1,
    labelled ["compare"].  The audit path's cross atoms run the same
    steps over whole columns; experiment P11 and the tests call this
    one-value form. *)

val naive : net:Net.Network.t -> coordinator:Net.Node_id.t -> party list -> verdict
