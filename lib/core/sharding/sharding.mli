(** Sharded multi-cluster DLA (ROADMAP: millions of users won't fit in
    one TTP cluster).

    A {!t} is a fleet of independent {!Cluster}s — shards — that
    together hold one global log.  The glsn space is partitioned by
    contiguous range: shard [i] owns the 2{^20} glsns from
    [0x139aef78 + i·2{^20}], the paper's first glsn for shard 0.  The
    user population is partitioned by a stable hash of the submitting
    principal, so every record lands on exactly one shard and every
    glsn has exactly one owner.  Shards keep no
    replicas: a fleet audit runs each shard's executor under [Fail].

    Fleet audits ({!audit}, {!run_session}, {!byzantine_audit}) share
    one {e scatter-gather} fan-out: the coordinator sends the criteria
    to every shard in layout order, each shard evaluates confidentially
    inside its own cluster (its own fragmentation, keys, tickets and
    per-session {!Executor.cache}), and the verdicts come back for a
    deterministic merge — matching glsn lists concatenate in glsn order
    because the ranges are disjoint, coverage merges with
    {!Executor.merge_coverage}.  Every shard runs even when an earlier
    one fails, and the first error in layout order wins.  A
    single-shard deployment bypasses the fabric entirely and is
    byte-identical to the unsharded path.

    Cross-shard traffic is accounted separately from the shards'
    internal SMC traffic: [audit.cross_shard_msgs] counts fabric
    messages (2·S per scatter-gather when S > 1, 0 when S = 1), and
    per-shard [shard.scatter.<name>] / [shard.gather.<name>] counters
    plus [shard.scatter] / [shard.gather] / [shard.audit.<name>] spans
    expose the fan-out in the telemetry (none of them when S = 1), so
    the §3 cost model for the intra-shard work stays pinned.  The
    scatter and gather spans read the fabric's virtual clock, each
    [shard.audit.<name>] span its own shard's.  Each
    result's [cross_shard_msgs] field holds the fabric messages its
    call charged. *)

type shard = {
  index : int;
      (** the shard owns the 2{^20} glsns from [0x139aef78 + index·2{^20}] *)
  name : string;  (** ["shard<i>"] *)
  cluster : Cluster.t;
}

type t

val create :
  ?seed:int ->
  ?net_of:(int -> Net.Network.t) ->
  shards:int ->
  Fragmentation.t ->
  t
(** Build a fleet of [shards] homogeneous clusters over one
    fragmentation map.  Shard [i] gets seed [seed + i], the network
    [net_of i] (default: a fresh {!Net.Network.of_config} engine seeded
    [seed + 131·i]) and the glsn range starting at
    [0x139aef78 + i·2{^20}] — so a 1-shard fleet is constructed
    exactly like the corresponding unsharded cluster.  The inter-shard
    network that carries federated aggregates is fresh, seeded
    [seed + 977].
    @raise Invalid_argument if [shards < 1]. *)

val shards : t -> shard list
(** In layout (ascending range) order. *)

val shard_count : t -> int

val owner_of : t -> Glsn.t -> shard option
(** The shard whose range contains the glsn. *)

val shard_of_user : t -> Net.Node_id.t -> shard
(** Population routing: a stable FNV-1a hash of the principal's
    identity picks the home shard, so one user's records stay
    together. *)

val submit :
  t ->
  origin:Net.Node_id.t ->
  attributes:(Attribute.t * Value.t) list ->
  (shard * Glsn.t, string) result
(** Route the event to {!shard_of_user}[ t origin]'s cluster and log it
    there under a per-(shard, principal) ingest ticket (issued on first
    use and cached), with {!Cluster.submit}'s default [Degraded]
    durability.  Returns the owning shard with the assigned glsn.
    @raise Invalid_argument if the owning shard's 2{^20}-glsn range is
    exhausted. *)

val record_count : t -> int
(** Total committed records across the fleet. *)

val all_glsns : t -> Glsn.t list
(** Every record in the fleet, glsn-ascending (ranges are disjoint, so
    this is the shard lists concatenated in layout order). *)

(** {1 Scatter-gather audits} *)

type audit = {
  merged : Auditor_engine.audit;
      (** the fleet-wide verdict: glsn-sorted matching union, summed
          counts and wire costs, {!Executor.merge_coverage}d coverage *)
  per_shard : (string * Auditor_engine.audit) list;
      (** each shard's own verdict, in layout order *)
  cross_shard_msgs : int;
      (** fabric messages this audit cost — 2·S for S > 1, 0 for the
          single-shard bypass; {e not} included in [merged.messages],
          which sums the shards' internal SMC traffic *)
}

val audit :
  t ->
  ?delivery:Executor.delivery ->
  auditor:Net.Node_id.t ->
  Auditor_engine.request ->
  (audit, Audit_error.t) result
(** Fan the criteria out to every shard, run {!Auditor_engine.run} in
    each, and merge.  With one shard this is exactly
    {!Auditor_engine.run} — same bytes on the wire, same report.

    A [Count_only] delivery gives the auditor each shard's count:
    every shard's executor delivers its own, and [per_shard] returns
    them beside the merged total.  {!secret_count_total} is the path
    that releases only the fleet total.

    Errors: a parse error in a [Text] request returns before the
    scatter, with no fabric traffic.  Every other error — an unknown
    attribute from a shard's planner, say — comes back from the shards
    after the scatter, which is then charged; the first in layout order
    wins. *)

type session = {
  merged : Audit_session.summary;
      (** entry-wise merge of the shards' summaries, in request order *)
  per_shard : (string * Audit_session.summary) list;
  cross_shard_msgs : int;  (** as {!audit}'s *)
}

val run_session :
  t ->
  auditor:Net.Node_id.t ->
  Query.t list ->
  (session, Audit_error.t) result
(** Batched scatter-gather: run one {!Audit_session} inside each shard —
    each with its own fresh per-session {!Executor.cache}, under the
    session's defaults ([Glsns], [Fail]) — and merge the summaries
    entry-wise.  Single-shard fleets bypass the fabric and match
    {!Audit_session.run} byte for byte.

    Errors: nothing is checked before the scatter.  Each shard plans
    the batch itself, so an unknown attribute, like any other error,
    comes back from the shards after the scatter; the first in layout
    order wins. *)

(** {1 Fleet aggregates} *)

val secret_count_total :
  t -> auditor:Net.Node_id.t -> criteria:string -> (int, string) result
(** Fleet-wide secret count.  With S ≥ 2 the shards act as a
    {!Federation}: each evaluates count-only locally and the counts
    combine under the §3.5 Shamir secure sum over the inter-shard
    network, so no shard learns another's count.  With S = 1 the single
    shard answers directly (count-only), with no fabric traffic. *)

(** {1 Byzantine-tolerant sharded audits} *)

type byzantine = {
  outcomes : (string * Byzantine.outcome) list;
      (** per-shard outcomes, layout order *)
  matching : Glsn.t list;  (** merged, glsn-ascending *)
  count : int;
  coverage : Executor.coverage;
  attempts : int;  (** max over shards — rounds of the slowest shard *)
  quarantined : (string * Net.Node_id.t) list;
      (** shard-tagged: quarantine is confined to the shard whose node
          lied; other shards never fence anything *)
  verify_msgs : int;  (** summed commitment-exchange traffic *)
  verify_bytes : int;
  cross_shard_msgs : int;  (** as {!audit}'s *)
}

val byzantine_audit :
  t ->
  auditor:Net.Node_id.t ->
  Query.t ->
  (byzantine, Audit_error.t) result
(** {!Byzantine.audit} inside every shard, under its defaults
    ({!Byzantine.Rehost}, [Glsns]) and under the ambient
    {!Net.Adversary} hook: detection, quarantine and re-run all happen
    within the accused node's own shard, whose node count sets its
    tolerance and retry budget.

    Errors: as {!run_session}'s.  Every shard runs, also after an
    earlier one has failed (with a {!Audit_error.Byzantine_fault} past
    its tolerance, say), and the first error in layout order wins. *)
