(** Distributed confidential query execution (paper §2, Figure 3).

    Runs a planned query against a cluster:

    - local atoms are evaluated by their home node over its own
      fragments;
    - cross atoms are evaluated with a blinded-comparison batch through a
      blind TTP (§3.2/§3.3 machinery): both homes apply a shared secret
      order-preserving transform and ship only transformed columns, so
      the TTP learns order/equality relations, never values;
    - each clause SQ_i (a disjunction) is assembled at its clause home as
      a union of atom glsn sets;
    - the conjunction of clauses is computed by secure set intersection
      with glsn as the set element, exactly as the paper specifies;
    - the final glsn list is delivered to the auditor.

    Glsn identifiers travel in the clear: they are cluster-assigned
    metadata every node already stores (Definition 1's permitted
    secondary information). *)

val ttp : Net.Node_id.t
(** [Ttp "query"]: the one blind TTP that every cross atom's blinded
    columns go to (§3.2–3.3), and the deliverer of an empty result. *)

type delivery =
  | Glsns  (** the auditor receives the matching glsn list (default) *)
  | Count_only
      (** the auditor receives only the cardinality — the paper's
          "secret counting" mode (§1, ref [7]): audit statistics such as
          "number of specific services used" without learning which
          records matched *)

(** What to do when a node an atom needs is down. *)
type failure_mode =
  | Fail  (** raise {!Net.Network.Partitioned}, as the plain path does *)
  | Degrade
      (** never raise: recovered-but-wiped nodes are first repaired from
          replicas (when a {!Replication.t} is supplied), atoms whose
          homes stay down are skipped, and the report's {!coverage}
          says exactly what was and was not evaluated.  Failover never
          widens any node's observations: repair targets only the
          owner of the lost rows (replicas stay ciphertext to their
          holders), clause re-homing moves glsn-set metadata only. *)

type coverage = {
  complete : bool;  (** [true] iff nothing was skipped *)
  unreachable : Net.Node_id.t list;  (** nodes that could not serve *)
  skipped_atoms : int;
  skipped_clauses : int;  (** clauses with no evaluable atom, dropped *)
  evaluated_clauses : int;
  total_clauses : int;
  repaired : (Net.Node_id.t * Glsn.t) list;
      (** rows restored from replicas before evaluation *)
}

type report = {
  criteria : Query.t;
  matching : Glsn.t list;
      (** sorted ascending; empty under [Count_only] (see [count]) *)
  count : int;  (** cardinality of the result set *)
  c_auditing : float;  (** eq 11: {!Confidentiality.c_auditing} of the plan *)
  coverage : coverage;
      (** which clauses were evaluated and which records were
          unreachable; [complete = true] on the fault-free path *)
}

val merge_coverage : coverage list -> coverage
(** Combine per-shard coverage reports into one: [complete] is the
    conjunction, [unreachable] the deduplicated canonical union, the
    clause/atom tallies are sums and [repaired] the concatenation.
    Identity on a singleton list, so a one-shard deployment reports
    byte-identical coverage to the unsharded path.  Raises
    [Invalid_argument] on an empty list. *)

(** {1 Session glsn-set cache}

    A per-session memo of evaluated clauses SQ_i, keyed by
    {!Planner.clause_key}.  A hit returns the clause's glsn set without
    re-running the SMC machinery — no blinded columns, no TTP round, no
    local-result transfer — and bumps the [audit.cache_hit] counter.
    Only a set whose evaluation skipped no atom is stored: a clause
    evaluated under [Degrade] with nodes down is evaluated again on its
    next use, so a cached set never carries coverage debt.  Glsn sets
    are Definition-1 metadata, so caching them widens no node's
    observations. *)

type cache

val cache_create : unit -> cache
val cache_hits : cache -> int  (** clause hits served so far *)

val cache_purge : cache -> nodes:Net.Node_id.t list -> int
(** Drop every entry whose glsn set depended on one of [nodes] (it
    homed an atom, served a cross column, or assembled the clause
    union) and return how many entries were removed.  The Byzantine
    layer calls this when a node is quarantined; lookups also
    self-invalidate lazily against {!Cluster.is_quarantined}, so a
    purge is an eager variant of what {!run} would do anyway.  Bumps
    [audit.cache_invalidated] per removed entry. *)

(** {2 Delta surface}

    The continuous-audit engine ({!Continuous_incremental}) maintains a
    long-lived cache across commits.  These operations expose just
    enough of an entry to apply an insert-only delta, and reuse the
    exact taint discipline of the session lookup path. *)

val trusted : Cluster.t -> Net.Node_id.t -> bool
(** The trust predicate {!run} evaluates and serves cached entries
    under: a node is trusted unless {!Cluster.is_quarantined}. *)

val cache_lookup_clause :
  cache -> trusted:(Net.Node_id.t -> bool) -> string -> Glsn.Set.t option
(** Look up a clause's set by {!Planner.clause_key} under the same
    discipline as {!run}'s internal lookup — a tainted entry (any
    source not [trusted]) is dropped on sight, bumping
    [audit.cache_invalidated] — but without counting a session cache
    hit: delta maintenance is not query traffic. *)

val cache_insert_glsn_clause : cache -> key:string -> Glsn.t -> bool
(** Add one glsn to an existing clause entry (idempotent); [false] if
    no entry exists under [key] — there is nothing to maintain, and the
    caller must not create one from thin air (entries carry provenance
    only evaluation can establish). *)

val cache_drop_clause : cache -> key:string -> unit
(** Forget one clause entry — the re-blind fallback for deltas that
    cannot be expressed incrementally (cross atoms compare full blinded
    columns, so one new row invalidates the comparison wholesale). *)

val cache_remove_glsn : cache -> Glsn.t -> int
(** Strip a glsn from every entry that contains it (transaction
    rollback undoing a prefix); returns how many entries changed. *)

val run :
  Cluster.t ->
  ?delivery:delivery ->
  ?on_failure:failure_mode ->
  ?replication:Replication.t ->
  ?cache:cache ->
  ?conjunction:(Numtheory.Prng.t -> Crypto.Commutative.scheme) ->
  auditor:Net.Node_id.t ->
  Query.t ->
  (report, Audit_error.t) result
(** Fails on planner errors.  Matches {!Query.eval_record} applied to
    every reassembled record (the tests assert this equivalence).

    [on_failure] defaults to [Fail] (exact historical behaviour).  With
    [Degrade], the audit always returns a report; when nodes were down
    the result is computed over the clauses that could be evaluated and
    [coverage] discloses the gap — the answer is exact again once the
    nodes recover (after [drain_hints]/repair), which the chaos suite
    asserts.

    With [cache], each clause's glsn set is looked up before any
    evaluation and, when the evaluation skipped no atom, stored after
    it; answers are byte-identical with and without a cache (the sets
    depend only on stored data, never on message timing or blinding
    randomness).

    [conjunction] builds the commutative scheme the multi-home ∩ₛ runs
    under (default: the XOR pad, the exact historical behaviour, under
    which the ∩ₛ receiver can read the other homes' clause sets —
    SECURITY.md limitation 2).  Any
    {!Crypto.Commutative.scheme} yields the same intersection — the
    protocol is scheme-generic — but a modexp-backed cipher such as
    {!Crypto.Commutative.pohlig_hellman} turns the ring passes into
    encryption batches an installed domain pool can farm, which is how
    the P18 pipeline bench generates real parallel compute. *)

val warm_clause :
  Cluster.t ->
  ?on_failure:failure_mode ->
  cache:cache ->
  Planner.planned_clause ->
  unit
(** Evaluate one planned clause at its home and store its glsn set in
    [cache]: the same evaluation and store the first {!run} over that
    clause performs, so a clause that skipped an atom is not stored.  A
    cached set is left as is, without counting a hit; a tainted one is
    dropped (bumping [audit.cache_invalidated]) and the clause evaluated
    again.
    {!Audit_session} uses this to pipeline the unique clauses of a batch
    before the per-query conjunctions run. *)
