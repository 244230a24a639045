(** Access-control-table reconciliation.

    §4 requires "each audit node maintains the same access control
    table"; §4.1's secure-set-intersection check detects divergence
    (e.g. a compromised node rewrote an entry) but does not repair it.
    This module closes the loop with an anti-entropy round: nodes
    commit-then-reveal digests of their entry for a ticket, the majority
    digest wins, minority nodes adopt the majority entry, and the
    overruled nodes are reported (they are the §4.1 suspects). *)

val diverged : Cluster.t -> ticket_id:string -> Net.Node_id.t list
(** Nodes whose entry digest differs from the (strict-majority) digest;
    empty when consistent.  Purely local inspection, no repair. *)

val reconcile :
  Cluster.t ->
  rng:Numtheory.Prng.t ->
  ticket_id:string ->
  (Net.Node_id.t list, string) result
(** Run the reconciliation round.  Returns the overruled nodes (possibly
    empty).  Fails when no strict majority exists — the cluster cannot
    tell truth from fabrication and must escalate. *)
