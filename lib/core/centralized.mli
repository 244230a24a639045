(** Centralized auditing baseline (paper §2, Figure 1).

    A single auditor holds the complete log repository and evaluates
    queries directly.  Functionally equivalent to the DLA cluster —
    the tests assert identical query answers — but with zero
    confidentiality: the observation ledger shows the auditor sees every
    attribute of every record in plaintext, which is exactly the
    single-point-of-trust problem the paper's architecture removes. *)

type t

val create : auditor:Net.Node_id.t -> unit -> t
(** A repository on a fresh clean network. *)

val net : t -> Net.Network.t
val auditor : t -> Net.Node_id.t

val submit :
  t -> origin:Net.Node_id.t -> attributes:(Attribute.t * Value.t) list -> Glsn.t
(** The whole record travels to the auditor and is stored there. *)

val record_count : t -> int
val query : t -> Query.t -> Glsn.t list
(** Direct evaluation over the repository; sorted ascending. *)
