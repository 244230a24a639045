(** Batched audit sessions (§2 Figure 3 batching, §5 eq 11 cost
    amortization).

    The paper's auditors issue {e sets} of criteria against the same log
    window; running them one {!Auditor_engine.run} at a time re-pays the
    full SMC bill — blinded comparisons, local-result transfers, ∩ₛ
    rounds — for every query, even when the queries share most of their
    predicates.  A session instead:

    - {b plans jointly}: the batch is normalized and planned with
      {!Planner.plan_many}, which recognizes identical atoms and clauses
      across queries by canonical key (common-subexpression
      elimination); the savings are published as [audit.dedup_atoms] /
      [audit.dedup_clauses];
    - {b pipelines the unique clauses}: the distinct SQ_i are stably
      sorted by estimated cost (local clauses before TTP-heavy cross
      clauses, first seen first among ties) and each is evaluated
      exactly once via {!Executor.warm_clause}, so SMC rounds from
      different criteria interleave instead of serializing per query;
    - {b memoizes glsn sets}: results land in an {!Executor.cache}; the
      per-query executions then serve every clause from the cache
      ([audit.cache_hit]) and pay only their own conjunction (∩ₛ) and
      delivery.  Under [Degrade], a clause that skipped an atom is not
      cached, so each query that needs it evaluates it again.

    Answers are byte-identical to running the queries sequentially —
    glsn sets depend only on stored data, never on evaluation order or
    blinding randomness (property-tested across the three
    {!Spec.Schedule} network schedules). *)

type entry = {
  criteria : Query.t;
  matching : Glsn.t list;  (** sorted; empty under [Count_only] *)
  count : int;
  c_auditing : float;  (** eq 11 *)
  coverage : Executor.coverage;
}

type summary = {
  entries : entry list;  (** one per criteria, in request order *)
  unique_atoms : int;
  unique_clauses : int;
  dedup_atoms : int;  (** atom occurrences eliminated by sharing *)
  dedup_clauses : int;  (** clause occurrences eliminated by sharing *)
  cache_hits : int;  (** glsn-set lookups that skipped SMC work *)
  messages : int;  (** network cost of the whole session *)
  bytes : int;
  rounds : int;
  pipeline : Net.Runtime.Pipeline.report;
      (** virtual-time schedule for phase 1: each distinct clause is a job
          over its {!Planner.clause_resources}; [sequential_ms] is the
          virtual time the clause evaluations actually consumed end to
          end, [pipelined_ms] the makespan once independent clauses
          overlap under the configured
          {!Net.Config.max_pipeline_depth} *)
}

val run :
  Cluster.t ->
  ?delivery:Executor.delivery ->
  ?failure_mode:Executor.failure_mode ->
  ?conjunction:(Numtheory.Prng.t -> Crypto.Commutative.scheme) ->
  auditor:Net.Node_id.t ->
  Query.t list ->
  (summary, Audit_error.t) result
(** Audit a batch of criteria in one session.  Fails like
    {!Auditor_engine.run} on the first planner error; under the default
    [Fail] mode a partition raises {!Net.Network.Partitioned} exactly as
    the sequential path does.  The empty batch yields an empty summary
    without touching the network.  Every session warms a fresh cache of
    its own.

    [conjunction] is forwarded to every phase-2 {!Executor.run}
    (default: the XOR pad, the exact historical behaviour) — see
    {!Executor.run} for why a modexp-backed scheme matters under a
    domain pool. *)

val run_strings :
  Cluster.t ->
  ?delivery:Executor.delivery ->
  ?failure_mode:Executor.failure_mode ->
  ?conjunction:(Numtheory.Prng.t -> Crypto.Commutative.scheme) ->
  auditor:Net.Node_id.t ->
  string list ->
  (summary, Audit_error.t) result
(** Parse each criteria text, then {!run}; the first parse failure
    yields its {!Audit_error.Parse_error}. *)

val pp_summary : Format.formatter -> summary -> unit
