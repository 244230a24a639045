(** Observation ledger: who saw what, at which sensitivity.

    The paper's central claim is about *non-observation*: "no single DLA
    node can have the full knowledge of the logs".  Protocol code in this
    repository records every value a node handles together with its
    sensitivity class; the test suite then asserts the claim directly —
    e.g. that a foreign plaintext log attribute never appears in any DLA
    node's [Plaintext] observations, only [Ciphertext] or [Aggregate]
    ones.

    This is instrumentation of the simulation, not part of the protocol:
    a real deployment has no such ledger.  So it stays off the hot path:
    an observation is stored as a typed {!payload} — the values
    themselves beside the function that renders them — and is turned
    into a string only when a query reads it.  Each format
    ([Bignum.to_string], [Bignum.to_hex], [Glsn.to_string], …) stays in
    its own module; the ledger knows none of them.  Query results are
    exactly the strings an eager ledger would have stored. *)

type sensitivity =
  | Plaintext  (** raw secret data — seeing a foreign one is a breach *)
  | Ciphertext  (** commutatively/otherwise encrypted material *)
  | Blinded  (** affine/monotone-transformed values *)
  | Share  (** a single secret-sharing share *)
  | Aggregate  (** an authorized final result (sum, intersection, ...) *)
  | Metadata  (** counts, sizes, glsn's — the "secondary information"
                  relaxed SMC (Definition 1) permits *)

val sensitivity_to_string : sensitivity -> string

(** What a node observed.  Elements must be immutable: they are kept
    as given and rendered whenever a query reads them. *)
type payload =
  | Text : string -> payload  (** one observation, already a string *)
  | Batch : ('a -> string) * 'a list -> payload
      (** one observation per element, in list order — a blinded
          column, a message's ciphertexts.  The empty batch is no
          observation at all. *)
  | Joined : ('a -> string) * 'a list -> payload
      (** a single observation: the rendered elements joined with
          [","] — a glsn set.  The empty set is one [""]
          observation. *)

val rendered : payload -> string list
(** The observations a payload stands for, rendered, in order. *)

type t

val create : unit -> t

val record :
  t ->
  node:Node_id.t ->
  sensitivity:sensitivity ->
  tag:string ->
  payload ->
  unit
(** [record t ~node ~sensitivity ~tag payload]: [node] has observed
    [payload]; [tag] says in which protocol role (e.g.
    ["intersection:element"]).  Renders nothing.  Protocol code does
    not call this directly but goes through [Smc.Proto_util.observe]. *)

(** {1 Queries}

    Only these render, and each renders only the entries whose node
    and sensitivity it is asked about. *)

val observations :
  t -> node:Node_id.t -> (sensitivity * string * string) list
(** Everything a node saw, as [(sensitivity, tag, value)], oldest
    first; a batch expands to one triple per element. *)

val saw : t -> node:Node_id.t -> sensitivity:sensitivity -> string -> bool
(** Did this node observe this exact value at this sensitivity?  A
    batch element counts. *)

val saw_plaintext : t -> node:Node_id.t -> string -> bool

val nodes_that_saw : t -> sensitivity:sensitivity -> string -> Node_id.t list

val plaintext_exposure : t -> string -> Node_id.t list
(** All nodes that saw the value as [Plaintext] — the breach check. *)

val size : t -> int
(** Total number of recorded observations, not payloads: a batch of
    [n] counts [n], a joined set counts one. *)
