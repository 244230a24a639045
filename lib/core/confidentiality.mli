(** Degree-of-auditing-confidentiality metrics (paper §5, eqs 10–13).

    - [C_store(Log) = v·u / w] — eq 10: for a record with [w] attributes,
      [v] of them undefined, needing [u] DLA nodes to cover;
    - [C_auditing(Q) = (t+q) / (s+q)] — eq 11: for a normalized query
      with [s] atoms, [t] cross atoms and [q] conjunction connectors;
    - [C_query(Q, Log) = C_auditing(Q) · C_store(Log)] — eq 12;
    - [C_DLA = average C_query] over a query/log workload — eq 13. *)

val c_store : Fragmentation.t -> Log_record.t -> float
(** 0 when the record has no attributes covered by the cluster. *)

val c_store_params : Fragmentation.t -> Log_record.t -> int * int * int
(** [(w, v, u)] — the raw inputs of eq 10, for reporting. *)

val c_auditing : Planner.t -> float

val c_auditing_params : Planner.t -> int * int * int
(** [(s, t, q)] — the raw inputs of eq 11. *)

val c_dla :
  Fragmentation.t ->
  queries:Query.t list ->
  records:Log_record.t list ->
  (float, string) result
(** Mean of eq 12's C_query over the full query × record workload;
    [Error] if any query fails to plan. *)
