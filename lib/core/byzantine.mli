(** Byzantine detection → quarantine → re-run for audit rounds.

    {!audit} wraps {!Executor.run} in a fresh {!Smc.Round_guard}: the
    guard's round-commitment cross-checks (and [Smc.Sum]'s consistency
    voting) turn every wire-level lie into a typed accusation naming
    the lying node.  After an accused round the driver:

    + quarantines each accused node in the {!Cluster} (fencing it from
      audit duty) and in the installed {!Net.Adversary}, modelling the
      operational fix — the compromised process is killed and its
      fragment data re-hosted on an honest replica;
    + purges every session-cache entry the accused nodes contributed to
      ({!Executor.cache_purge} — stale glsn sets a liar helped compute
      must never be served);
    + re-runs the audit on the surviving configuration.

    Recovery comes in two flavours: {!Rehost} (default) lifts the
    cluster quarantine after fencing, so the retry serves the same
    fragments from the honest replacement and converges to the exact
    clean verdict; {!Exclude} keeps the node fenced and retries under
    {!Executor.Degrade}, reusing PR 1's coverage-debt semantics — the
    report then names the uncovered clauses.

    The driver gives up with {!Audit_error.Byzantine_fault} when the
    distinct accused nodes exceed the collusion tolerance or the retry
    budget is exhausted.  Both are derived from the cluster's [n]
    nodes: the tolerance is [(n-1)/2], an honest majority, and the
    budget is [tolerance + 1] runs. *)

type recovery_mode =
  | Rehost  (** replace the fenced process, retry at full coverage *)
  | Exclude  (** keep the node fenced, retry degraded with coverage debt *)

(** One detection round: who was caught during which attempt. *)
type event = { attempt : int; accused : Net.Node_id.t list; detail : string }

type outcome = {
  report : Executor.report;  (** the verdict of the accepted run *)
  attempts : int;  (** runs performed, [1] on the clean path *)
  quarantined : Net.Node_id.t list;
      (** every node fenced during this audit, sorted *)
  events : event list;  (** chronological detection rounds *)
  verify_msgs : int;  (** commitment-exchange traffic, all attempts *)
  verify_bytes : int;
}

val audit :
  Cluster.t ->
  ?recovery:recovery_mode ->
  ?cache:Executor.cache ->
  auditor:Net.Node_id.t ->
  Query.t ->
  (outcome, Audit_error.t) result
(** Run the audit ({!Executor.run}, [Glsns] delivery, no replica
    repair) with per-round verification until a run completes with no
    accusations, for at most [tolerance + 1] runs (each failed attempt
    fences at least one new node, so that always suffices below
    tolerance).  Planner and aggregate errors pass through unchanged;
    tolerance or budget exhaustion returns
    {!Audit_error.Byzantine_fault} naming every accused node. *)
