(** Secret-shared column storage — the maximum-confidentiality mode for
    aggregate-only attributes.

    In the standard layout every attribute has a single home node, so
    {e that} node sees every value of its columns (C_store counts on it).
    For attributes that are only ever audited in aggregate — the paper's
    "total of volumes" — the cluster can do strictly better: store each
    value as a (k, n) Shamir sharing, one share per DLA node.  Then {e no
    node ever holds any value}, fewer than [k] colluders learn nothing,
    and totals still come out exactly: shares are summed locally per
    node (linearity) and only [k] aggregate shares travel to the auditor
    for reconstruction — the §3.5 secure sum applied at storage time.

    The trade-off is that the column no longer supports per-record
    predicates (no comparisons on shares); queries select records via
    the ordinary attributes, and this column contributes sums only. *)

type t

val create : Cluster.t -> attr:Attribute.t -> k:int -> t
(** Register a shared column.  [attr] must {e not} be in the cluster's
    fragmentation universe (it never materializes anywhere).
    @raise Invalid_argument on a homed attribute or bad [k]. *)

val record : t -> ?dealer:Net.Node_id.t -> glsn:Glsn.t -> Value.t -> unit
(** Split the value and deal one share per node (ledger: [Share] at the
    nodes, [Plaintext] at the [dealer] — the application node that owns
    the value, default [User 0]).  Only numeric kinds; one value per
    glsn.
    @raise Invalid_argument on strings, negatives, or duplicate glsn. *)

val secret_total :
  t -> ?over:Glsn.t list -> auditor:Net.Node_id.t -> unit -> Value.t
(** Total over the selected glsn's (default: all recorded).  Each node
    sums its shares locally; [k] nodes forward their aggregate share;
    the auditor reconstructs.  The result carries the recorded kind. *)

val node_knows_nothing : t -> Cluster.t -> Glsn.t -> bool
(** Ledger check used by tests: no single node observed the value of
    this glsn at [Plaintext] sensitivity. *)
