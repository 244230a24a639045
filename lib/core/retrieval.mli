(** Authorized log retrieval (paper §4).

    "u_j has full access to its own log trail fragments stored in the
    DLA cluster, through some ticket authentication" — and only to its
    own: read access requires a valid ticket with the [Read] right whose
    ACL entry (maintained identically at every node, Table 6) lists the
    requested glsn.  Fragments then travel from every node to the
    requester, which reassembles the full record.

    This is the one sanctioned path by which complete records leave the
    cluster; the observation-ledger tests pin down that it is gated
    exactly as specified (wrong ticket, missing right, foreign glsn and
    expired ticket are all refused by every node independently). *)

val fetch_record :
  Cluster.t ->
  ticket:Ticket.t ->
  requester:Net.Node_id.t ->
  Glsn.t ->
  (Log_record.t, string) result
(** Reassemble the full record for an authorized owner.  Fails, naming
    the glsn, when the stored fragments do not form one record (one
    attribute on two nodes, as only a tampered store holds). *)

val fetch_projection :
  Cluster.t ->
  ticket:Ticket.t ->
  requester:Net.Node_id.t ->
  attrs:Attribute.t list ->
  Glsn.t ->
  ((Attribute.t * Value.t) list, string) result
(** Fetch only the named attributes — touches only their home nodes. *)
