(** Auditing criteria (paper §2).

    "Auditing criteria Q … composed by several auditing predicates using
    logical connectors ∧, ∨ and ¬.  The auditing predicate's terms are
    of the form A ≈ (B|c), where A, B are audit trail attributes … c is a
    constant, and ≈ is one of <, >, =, ≠, ≤, ≥.  The predicate contains
    no quantifiers."

    Queries normalize to the paper's conjunctive form
    (SQ_1) ∧ … ∧ (SQ_q+1): a conjunction of clauses, each clause a
    disjunction of atomic predicates, each clause processable by a single
    DLA node (local) or a node group (cross). *)

type comparison = Lt | Le | Gt | Ge | Eq | Ne

val comparison_to_string : comparison -> string
val apply_comparison : comparison -> int -> bool
(** Interpret a [compare]-style result (-1/0/1) under an operator. *)

type term =
  | Attr of Attribute.t
  | Const of Value.t

type atom = { attr : Attribute.t; op : comparison; rhs : term }

type t =
  | Atom of atom
  | And of t * t
  | Or of t * t
  | Not of t

val atom : Attribute.t -> comparison -> term -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

val to_string : t -> string

val parse : string -> (t, string) result
(** Concrete syntax, e.g.
    [{|time > 100 && (id = "U1" || C2 <= 345.11) && !(protocl = "UDP")|}].
    - identifiers are attribute names; [C<n>] is an undefined attribute;
    - integer literals are [Value.Int], decimal literals [Value.Money],
      quoted strings [Value.Str];
    - operators: [< <= > >= = !=], connectors [&& || !], parentheses. *)

(** {1 Normalized conjunctive form} *)

type clause = atom list
(** A disjunction of atoms — one SQ_i. *)

type normalized = clause list
(** A conjunction of clauses.  The empty conjunction is trivially true;
    an empty clause is unsatisfiable (cannot arise from [normalize]). *)

val normalize : t -> normalized
(** Negation-normal form (negations folded into the comparison
    operators) followed by distribution into CNF.  Logically equivalent
    to the input on every record. *)

val atom_count : normalized -> int
(** s of eq 11: total atomic predicates. *)

val conjunct_count : normalized -> int
(** q of eq 11: number of ∧ connectors, i.e. [clauses - 1]. *)

(** {1 Reference evaluation}

    Direct evaluation against a full record — the correctness oracle for
    the distributed executor and the engine of the centralized
    baseline. *)

val eval_atom : lookup:(Attribute.t -> Value.t option) -> atom -> bool
(** Atoms referencing attributes absent from the record are [false]
    (and their negation-flipped counterparts correspondingly [true] only
    when the comparison itself is; absence never matches). *)

val eval_normalized : lookup:(Attribute.t -> Value.t option) -> normalized -> bool
val eval_record : Log_record.t -> t -> bool

val pp : Format.formatter -> t -> unit
val pp_normalized : Format.formatter -> normalized -> unit
