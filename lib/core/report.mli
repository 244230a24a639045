(** Audit-report generation.

    The deliverable of Figure 1's pipeline ("Analysis and Rule Checking →
    Audit Report"): one human-readable document per audit engagement,
    assembling the criteria and its confidential result, the R_T
    compliance findings, the §5 confidentiality scores, the network cost
    of the engagement, and (optionally) the cluster certificate — so the
    recipient can check exactly what the auditor did and did not see. *)

type t

val create : title:string -> Cluster.t -> t

val add_audit : t -> Auditor_engine.audit -> unit
(** An audit line item.  Its mean C_store ({!Auditor_engine.mean_c_store})
    is computed here, on the report's cluster, so add the audit right
    after running it. *)

val add_count : t -> criteria:string -> int -> unit
(** A secret-counting line item. *)

val add_rule_findings :
  t -> tid:string -> (Rules.rule * string) list -> unit
(** Rule violations for one transaction (empty list = compliant). *)

val add_integrity_sweep : t -> (Glsn.t * Integrity.violation) list -> unit

val add_certificate : t -> Certification.certificate -> unit

val render : t -> string
(** The full report: engagement summary, line items, confidentiality
    digest (what classes of information the auditor observed, from the
    live ledger), and footer. *)
