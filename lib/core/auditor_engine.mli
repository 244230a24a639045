(** The auditor-engine facade (the AE_i boxes of Figure 2).

    One call audits a cluster: parse (or take) the criteria, plan,
    execute confidentially, and return the result together with its
    eq 11 score and the network cost of the audit.  The per-record §5
    scores (eq 10, eq 12) are computed on read, by {!mean_c_store},
    only for a caller that prints them.

    {!run} is the single entry point: it takes a {!request} (parsed
    criteria or query text) and the delivery/failure knobs of the
    executor.  Batches of criteria belong in an {!Audit_session}. *)

type audit = {
  criteria : Query.t;
  matching : Glsn.t list;
      (** sorted ascending; empty under [Count_only] (see [count]) *)
  count : int;  (** cardinality of the match set *)
  c_auditing : float;  (** eq 11 *)
  coverage : Executor.coverage;
      (** complete on the fault-free path; under [Degrade] it names
          what could not be evaluated *)
  messages : int;  (** network messages this audit cost *)
  bytes : int;
  rounds : int;
}

type request =
  | Criteria of Query.t  (** already-parsed criteria *)
  | Text of string  (** query-language text, parsed by {!run} *)

val criteria_of_request : request -> (Query.t, Audit_error.t) result
(** Resolve a request to parsed criteria ({!Audit_error.Parse_error}
    for [Text] that does not parse).  {!run} goes through this, and so
    does {!Continuous_registry.register} — a standing criterion is the
    same request type an on-demand audit takes. *)

val run :
  Cluster.t ->
  ?ttp:Net.Node_id.t ->
  ?delivery:Executor.delivery ->
  ?failure_mode:Executor.failure_mode ->
  ?replication:Replication.t ->
  ?cache:Executor.cache ->
  auditor:Net.Node_id.t ->
  request ->
  (audit, Audit_error.t) result
(** Audit the cluster once.  [delivery] defaults to [Glsns]; with
    [Count_only] the auditor learns only [count] (the paper's secret
    counting — [matching] is empty).  [failure_mode] defaults to
    [Fail]: a mid-audit partition raises {!Net.Network.Partitioned};
    with [Degrade] the call always returns and [coverage] discloses
    any gap.  [replication] and [cache] are threaded through to
    {!Executor.run} unchanged — the sharded scatter-gather driver uses
    them to repair from replicas and to reuse each shard's per-session
    glsn-set cache.  Errors are typed: {!Audit_error.Parse_error} for
    a [Text] request that does not parse,
    {!Audit_error.Unknown_attribute} from the planner. *)

val secret_sum :
  Cluster.t ->
  ?ttp:Net.Node_id.t ->
  auditor:Net.Node_id.t ->
  attr:Attribute.t ->
  string ->
  (Value.t, Audit_error.t) result
(** "Total of volumes" (paper §1/abstract): sum a numeric attribute over
    the matching records.  The attribute's home node evaluates the sum
    locally over the (metadata) glsn set and releases only the total;
    the auditor never sees per-record values.  The result carries the
    attribute's kind ([Money] sums to [Money], …).
    @raise nothing; mixed-kind or string columns yield an
    {!Audit_error.Aggregate_error}. *)

val secret_mean :
  Cluster.t ->
  ?ttp:Net.Node_id.t ->
  auditor:Net.Node_id.t ->
  attr:Attribute.t ->
  string ->
  (float, Audit_error.t) result
(** Mean of a numeric attribute over the matching records, computed by
    the auditor from two authorized aggregates (a secret sum and a
    secret count) — no additional disclosure beyond what those two
    already carry.  [Money] means are in currency units (not cents).
    {!Audit_error.No_matching_records} on an empty match set. *)

val mean_c_store : Cluster.t -> audit -> float
(** Eq 10 averaged over the audit's matching records, each reassembled
    from every DLA node with {!Cluster.record_of} — a collusion
    operation, so this is a reporting view for the caller, not part of
    the audit.  Mean eq 12 is [c_auditing *. mean_c_store].  A match the
    cluster no longer holds, or cannot reassemble (one attribute stored
    on two nodes), is skipped; [0.0] when nothing is left, and always
    under [Count_only].  Read it right after {!run}: later writes to the
    cluster change what the records reassemble to.
    @raise nothing *)

val pp_audit : Cluster.t -> Format.formatter -> audit -> unit
(** Criteria, matches, C_auditing, mean C_store and mean C_query (both
    from {!mean_c_store} on [cluster]) and the network cost. *)
