(** Transaction-specification checking (paper §2, eq 2; §4.2).

    A transaction's specification R_T = {r_j(T)} is a set of boolean
    rules over its audit trail — the paper names "correlation, fairness,
    non-repudiation, atomic, consistency checking, irregular pattern
    detection".  This engine evaluates such rules *confidentially*: each
    rule reduces to audit queries (the auditor learns only glsn sets and
    counts) plus, for temporal rules, a boolean computed locally by the
    time-attribute's home node — never raw timestamps at the auditor. *)

type rule =
  | Atomicity of { expected_events : int }
      (** all w events of the transaction were logged (eq 3) *)
  | Non_repudiation of { action_memo : string; receipt_memo : string }
      (** every [action_memo] event is matched by a [receipt_memo]
          event — e.g. every "order" has a "payment" *)
  | Ordering of { first_memo : string; then_memo : string }
      (** all [first_memo] events precede all [then_memo] events *)
  | Time_window of { max_seconds : int }
      (** the whole transaction completes within a bound *)
  | Consistency of string
      (** every event of the transaction satisfies the criteria (query
          syntax, see {!Query.parse}) *)
  | Frequency_cap of { memo : string; max_occurrences : int }
      (** irregular-pattern detection: at most [max_occurrences] events
          with this memo (e.g. a duplicate-payment check) *)

val rule_to_string : rule -> string

val check :
  Cluster.t ->
  auditor:Net.Node_id.t ->
  tid:string ->
  rule ->
  (unit, string) result
(** Evaluate one rule for the transaction with the given [tid] value
    (the [tid] attribute of its records).  [Error] carries a
    human-readable violation description. *)

val check_all :
  Cluster.t ->
  auditor:Net.Node_id.t ->
  tid:string ->
  rule list ->
  (rule * string) list
(** All violations (empty = compliant). *)
