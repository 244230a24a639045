(** Query planning (paper §2, Figure 3).

    Classifies each atom of a normalized query as *local* (both operands
    live at one DLA node) or *cross* (operands homed at two nodes), and
    assigns each clause SQ_i a home node that will assemble the clause's
    glsn set.  The planner only needs the fragmentation map — never the
    data.

    For batched sessions, {!plan_many} plans several queries jointly and
    reports how much of the work is shared: atoms and clauses are keyed
    by a canonical byte form (see {!clause_key}), so identical
    predicates appearing in different queries are recognized as one unit
    of SMC work. *)

type atom_home =
  | Local of Net.Node_id.t
  | Cross of { left : Net.Node_id.t; right : Net.Node_id.t }

type planned_atom = { atom : Query.atom; home : atom_home }

type planned_clause = {
  atoms : planned_atom list;
  clause_home : Net.Node_id.t;  (** node that assembles this SQ_i *)
  is_cross : bool;  (** does the clause involve more than one node? *)
}

type t = {
  clauses : planned_clause list;
  total_atoms : int;  (** s of eq 11 *)
  cross_atoms : int;  (** t of eq 11 *)
  conjuncts : int;  (** q of eq 11 *)
}

val plan : Fragmentation.t -> Query.normalized -> (t, Audit_error.t) result
(** Fails with {!Audit_error.Unknown_attribute} when a referenced
    attribute has no home in the cluster. *)

val homes : t -> Net.Node_id.t list
(** Distinct clause homes in canonical ({!Net.Node_id.compare}) order —
    independent of clause order, so logically equal plans report equal
    home sets. *)

(** {1 Canonical clause keys} *)

val clause_key : Query.clause -> string
(** An injective byte encoding used to recognize shared work: equal
    keys iff the clauses have structurally identical atoms (same
    attribute, operator and right-hand side), in any order, since a
    clause is a disjunction. *)

val planned_clause_key : planned_clause -> string
(** {!clause_key} of a planned clause's atoms. *)

val clause_resources : planned_clause -> Net.Node_id.t list
(** The storage nodes one clause evaluation occupies — its assembly
    home plus every atom's fragment home(s), in canonical order.  Two
    clauses with disjoint resource sets are independent SMC work and
    may overlap in the session's pipeline; TTP comparison services are
    stateless per atom and deliberately excluded. *)

(** {1 Multi-query planning} *)

type multi = {
  plans : t list;  (** one plan per input query, in input order *)
  unique_atoms : int;  (** distinct atoms across the whole batch *)
  unique_clauses : int;  (** distinct clauses across the whole batch *)
  dedup_atoms : int;
      (** atom occurrences eliminated by sharing: total - unique *)
  dedup_clauses : int;  (** clause occurrences eliminated by sharing *)
}

val plan_many :
  Fragmentation.t -> Query.normalized list -> (multi, Audit_error.t) result
(** Plan a batch jointly.  Fails on the first unknown attribute, like
    {!plan} on each query in order. *)

