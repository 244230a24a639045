(** Cluster-certified audit verdicts.

    Ties together the two trust mechanisms the paper's §2 assigns to the
    DLA nodes — distributed majority agreement and threshold signatures:
    an audit result becomes a {e certificate} only after (a) a majority
    of nodes approve it in a commit-then-reveal vote, and (b) at least
    [k] nodes contribute partial signatures that combine into one
    cluster signature.  No single node — nor any coalition below the
    threshold — can fabricate or block-and-forge a verdict. *)

open Numtheory

type t
(** The cluster's certification authority state: threshold-RSA
    parameters plus each node's key share. *)

type certificate = {
  statement : string;  (** canonical form of the certified claim *)
  signature : Bignum.t;
  approvals : int;
  rejections : int;
}

val setup : Cluster.t -> k:int -> unit -> t
(** Deal threshold key shares to the cluster's nodes.  [k] is the
    signing threshold; the modulus has 128 bits, which keeps safe-prime
    generation cheap. *)

val params : t -> Crypto.Threshold_rsa.params

val certify_statement :
  t ->
  Cluster.t ->
  ?dissenting:Net.Node_id.t list ->
  string ->
  (certificate, string) result
(** Vote on and threshold-sign an arbitrary cluster claim (audit
    statements, archive epoch hashes, …). *)

val certify :
  t ->
  Cluster.t ->
  ?dissenting:Net.Node_id.t list ->
  Auditor_engine.audit ->
  (certificate, string) result
(** Vote on the audit result and, on majority approval, threshold-sign
    its statement.  [dissenting] nodes vote Reject (and withhold their
    partials); certification fails if they are a majority or if fewer
    than [k] signers remain. *)

val verify : t -> certificate -> bool
(** Anyone holding the public parameters can check the certificate. *)
