(** Streaming continuous audits.

    An on-demand audit ({!Auditor_engine.run}) re-derives every glsn set
    from scratch.  This engine keeps the standing criteria of a
    {!Continuous_registry} continuously answered instead: it hooks
    {!Cluster.on_commit}, and on each committed glsn applies a {e delta}
    to its long-lived {!Executor.cache}:

    - a clause whose atoms are all {e local} takes an insert-only delta
      — the one new record is judged against each atom at its home
      (exactly {!Executor.eval_local_atom}'s per-record semantics) and
      the glsn is added to the cached atom/clause sets.  No SMC
      machinery runs, no messages move ([audit.delta.insert]);
    - a clause with a {e cross} atom cannot absorb one row into an
      already-blinded column comparison, so exactly that clause is
      dropped and re-blinded from its stores, at one clause's worth of
      §3 messages ([audit.delta.reblind]);
    - a clause with no usable entry (registration, taint purge after a
      quarantine, node recovery) is rebuilt the same way
      ([audit.delta.rebuild]).

    Verdicts are the conjunction of the cached clause sets — metadata
    set algebra, byte-identical to what a from-scratch run returns (the
    differential battery in [test_continuous.ml] proves this per
    commit).  Changes are emitted as typed {!delta}s and folded into a
    running delta-stream hash; every [checkpoint_interval] commits the
    engine cuts a {!Continuous_checkpoint} linking the accumulator
    summary of all integrity digests with that stream hash, and
    {!Executor.ttp} publishes the 64-hex head to the auditor, the
    verifier (Metadata-class, checked by {!Spec.View_auditor}).

    The engine evaluates under {!Executor.Fail}: a rebuild that hits a
    partition raises {!Net.Network.Partitioned} out of the commit,
    exactly like a from-scratch audit would at that moment.  Its cache
    can still hold incomplete entries, left by a
    {!Byzantine.audit}[ ~recovery:Exclude] that shares it, and a
    clause whose entry is unusable reports its home as the gap. *)

type delta =
  | Verdict_changed of {
      id : Continuous_registry.id;
      added : Glsn.t list;  (** withheld ([[]]) under [Count_only] *)
      removed : Glsn.t list;  (** nonempty only after a rollback *)
      count : int;  (** new cardinality *)
    }
  | Coverage_changed of {
      id : Continuous_registry.id;
      complete : bool;
      unreachable : Net.Node_id.t list;
    }  (** the evaluable fraction changed: a clause could not be
           rebuilt, or its cached entry is incomplete *)

val delta_to_string : delta -> string
(** Canonical serialization — the unit the delta-stream hash absorbs. *)

type verdict = {
  matching : Glsn.t list;
      (** sorted ascending; empty under [Count_only], like
          {!Executor.report.matching} *)
  count : int;
  complete : bool;
  unreachable : Net.Node_id.t list;
}

type t

val create : ?checkpoint_interval:int -> Continuous_registry.t -> t
(** Attach an engine to the registry's cluster: registers
    {!Cluster.on_commit}/{!Cluster.on_rollback} hooks, so every
    subsequent commit is processed inline (a drained hint's repeated
    commit is an idempotent insert) and every rollback strips its glsn
    from the cached sets, the only path that emits [removed].
    [checkpoint_interval] defaults to [0] — no automatic checkpoints
    (use {!checkpoint_now}). *)

val register :
  t ->
  ?delivery:Executor.delivery ->
  Auditor_engine.request ->
  (Continuous_registry.id, Audit_error.t) result
(** Register a standing criterion and initialize its verdict from a
    clean per-clause rebuild; an initial non-empty match emits a
    [Verdict_changed]. *)

val verdict : t -> Continuous_registry.id -> verdict option

val deltas : t -> delta list
(** Every delta emitted so far, oldest first. *)

val checkpoint_now : t -> Continuous_checkpoint.checkpoint
(** Cut, link and publish a checkpoint immediately. *)

val cache : t -> Executor.cache
(** The engine's live cache — hand it to {!Byzantine.audit} [?cache] so
    a mid-stream quarantine purges tainted incremental state too. *)

val chain : t -> Continuous_checkpoint.chain
val delta_stream_hash : t -> string
