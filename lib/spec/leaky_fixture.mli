(** Deliberately privacy-broken protocols.

    Each returns exactly the oracle's answer and still leaks.  They
    exist to prove the harness's negative case: a protocol can pass
    every result-equality check and still fail {!View_auditor}.  Never
    call these outside tests. *)

open Numtheory

val equality_via_ttp :
  net:Net.Network.t ->
  ttp:Net.Node_id.t ->
  left:Net.Node_id.t * Bignum.t ->
  right:Net.Node_id.t * Bignum.t ->
  bool
(** Equality that ships both raw inputs to the TTP, once recorded
    honestly as [Plaintext] and once mislabeled as [Blinded].
    {!View_auditor} must flag both the plaintext-at-TTP observation and
    the mislabeled verbatim secret. *)

val checkpoint_with_glsn :
  net:Net.Network.t ->
  publisher:Net.Node_id.t ->
  verifier:Net.Node_id.t ->
  digest:string ->
  glsn:string ->
  unit
(** A deliberately broken checkpoint publication: the chain head is
    annotated with the cleartext glsn that triggered it, so the
    published value is no longer a bare 64-hex digest.
    {!View_auditor}'s ["ckpt:"] event class must flag it as
    [Checkpoint_leak]. *)

val audit_leaking_column :
  Dla.Cluster.t ->
  ?delivery:Dla.Executor.delivery ->
  auditor:Net.Node_id.t ->
  attr:Dla.Attribute.t ->
  Dla.Auditor_engine.request ->
  (Dla.Auditor_engine.audit, Dla.Audit_error.t) result
(** A whole audit with a TTP that sees one plaintext column: before the
    honest {!Dla.Auditor_engine.run} (blind TTP [ttp:query]), the home
    of [attr] ships that column to the TTP unblinded, and the TTP
    records each cell as a [Plaintext] ["attr=value"] observation.  The
    answer is still exactly the oracle's, so only the view check can
    reject it: {!View_auditor} must flag [Plaintext_at_ttp].
    @raise Invalid_argument if no node stores [attr]. *)
