(** Standing auditing criteria.

    A continuous audit starts from the same {!Auditor_engine.request} an
    on-demand audit takes; registering it parses and plans it once, and
    the plan then stands until unregistered — the incremental engine
    ({!Continuous_incremental}) re-derives each standing criterion's
    verdict on every commit from the shared glsn-set cache, instead of
    re-running the audit from scratch. *)

type id = int
(** Registration handle, unique within one registry, never reused. *)

type standing = {
  sid : id;
  criteria : Query.t;
  plan : Planner.t;  (** planned once at registration *)
  delivery : Executor.delivery;
      (** [Count_only] standing criteria report cardinalities only, like
          the paper's secret counting *)
}

type t

val create : Cluster.t -> t
val cluster : t -> Cluster.t

val register :
  t -> ?delivery:Executor.delivery -> Auditor_engine.request -> (id, Audit_error.t) result
(** Parse (for [Text]) and plan the criteria against the cluster's
    fragmentation; typed errors are exactly {!Auditor_engine.run}'s
    ({!Audit_error.Parse_error}, {!Audit_error.Unknown_attribute}).
    [delivery] defaults to [Glsns].  Bumps
    [audit.continuous.registered]. *)

val unregister : t -> id -> bool
(** [false] if the id was not registered. *)

val registered : t -> standing list
(** Registration order (ascending [sid]). *)
