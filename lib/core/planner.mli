(** Query planning (paper §2, Figure 3).

    Classifies each atom of a normalized query as *local* (both operands
    live at one DLA node) or *cross* (operands homed at two nodes), and
    assigns each clause SQ_i a home node that will assemble the clause's
    glsn set.  The planner only needs the fragmentation map — never the
    data.

    For batched sessions, {!plan_many} plans several queries jointly and
    reports how much of the work is shared: atoms and clauses are keyed
    by a canonical byte form ({!atom_key}/{!clause_key}), so identical
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

(** {1 Canonical predicate keys}

    Injective byte encodings used to recognize shared work: equal keys
    iff the predicates are structurally identical (same attribute,
    operator and right-hand side; clause keys are additionally
    order-insensitive over their atoms, since a clause is a
    disjunction). *)

val atom_key : Query.atom -> string
val clause_key : Query.clause -> string

val planned_clause_key : planned_clause -> string
(** {!clause_key} of a planned clause's atoms. *)

val clause_resources : planned_clause -> Net.Node_id.t list
(** The storage nodes one clause evaluation occupies — its assembly
    home plus every atom's fragment home(s), in canonical order.  Two
    clauses with disjoint resource sets are independent SMC work and
    may overlap in the reactor; TTP comparison services are stateless
    per atom and deliberately excluded. *)

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

(** {1 Shard layout}

    A sharded deployment ({!Sharding}) splits the global log by glsn
    range across several DLA clusters.  Every shard evaluates every
    clause against its own rows, so the layout is the only sharded
    input the planner checks. *)

type shard_range = {
  shard : string;  (** shard name, unique within a layout *)
  glsn_lo : int;  (** first glsn owned by the shard (inclusive) *)
  glsn_hi : int;  (** first glsn past the shard (exclusive) *)
}

val validate_layout :
  shard_range list -> (shard_range list, Audit_error.t) result
(** Normalize a layout to canonical ascending order.  Fails with
    {!Audit_error.Shard_layout} when the ranges do not partition a
    contiguous glsn interval: empty layout, empty range, duplicate
    name, overlap, or gap. *)
