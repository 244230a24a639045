(** Shard-aware continuous audits.

    A standing criterion over a sharded fleet must watch {e every}
    shard: records route to shards by submitting principal, so any
    shard may commit the next matching record.  This module registers
    each criterion with a per-shard {!Continuous_registry} /
    {!Continuous_incremental} pair — the engines hook their own
    cluster's {!Cluster.on_commit}, so a {!Sharding.submit} feeds
    exactly the owning shard's engine, at that shard's delta cost
    (insert / reblind / rebuild), with no fabric traffic at commit
    time.  Verdicts merge like scatter-gather audits: glsn-sorted
    matching union, summed counts, conjunction of completeness.

    Registration is {e lockstep}: all shard registries are created
    together and every criterion registers on every shard, so one
    {!Continuous_registry.id} names the criterion fleet-wide. *)

type t

val create : Sharding.t -> t
(** Attach a registry and an incremental engine to every shard of the
    fleet, each as {!Continuous_incremental.create} makes it (no
    automatic checkpoints). *)

val register :
  t ->
  ?delivery:Executor.delivery ->
  Auditor_engine.request ->
  (Continuous_registry.id, Audit_error.t) result
(** Register the criterion on every shard (lockstep, so the returned id
    is valid fleet-wide).  A planner/parse error registers nothing
    anywhere. *)

val verdict : t -> Continuous_registry.id -> Continuous_incremental.verdict option
(** The merged fleet verdict: matching lists concatenated in glsn
    order, counts summed, [complete] the conjunction, [unreachable]
    the deduplicated union. *)

val per_shard_verdicts :
  t -> Continuous_registry.id ->
  (string * Continuous_incremental.verdict) list
(** Each shard's own verdict for the id, layout order. *)
