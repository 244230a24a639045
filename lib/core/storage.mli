(** Per-DLA-node fragment storage (paper §4, Tables 2–5).

    Each node stores, keyed by glsn, only the attribute columns it
    supports, plus the user-deposited integrity digest for the whole
    record (§4.1).  Tampering entry points simulate a compromised node
    for the integrity-check tests ("when a DLA node is compromised, its
    access control tables and log records could be modified").

    {1 Representation}

    A node keeps its rows as columns, the layout the paper's audits
    scan (§2): one glsn-ascending index of the stored rows (a row whose
    fragment is empty is in it too), and per attribute a glsn array
    beside a value array, both glsn-ascending.  A row's fragment is the
    cells its glsn holds across the columns, so {!fragment_of} returns
    them in {!Attribute.compare} order, whatever order {!store} was
    given them in.

    Glsns are allocated in ascending order, so a commit appends: one
    comparison with the newest entry, then amortized O(1) per cell.  An
    out-of-order store (replica repair, a drained hint), a rollback or
    a tamper finds its place by binary search and shifts the later
    entries of the index and of each column it touches: O(n) in the
    rows after it.  {!fragment_of} costs a binary search per column. *)

open Numtheory

type t

val create : supported:Attribute.Set.t -> t

val supported : t -> Attribute.Set.t

val store :
  t -> glsn:Glsn.t -> fragment:(Attribute.t * Value.t) list -> unit
(** Store one row; an empty fragment stores a row with no cells.
    @raise Invalid_argument if the fragment contains an unsupported
    attribute or one attribute twice, or the glsn is already present. *)

val store_digest : t -> glsn:Glsn.t -> Bignum.t -> unit
(** Deposit the record-level accumulator value sent by the user. *)

val store_witness : t -> glsn:Glsn.t -> Bignum.t -> unit
(** Deposit this node's membership witness (the accumulation of the
    {e other} nodes' fragments, ref [27]) so the node can later prove
    its fragment in isolation. *)

val remove : t -> glsn:Glsn.t -> bool
(** Roll back a stored row: drop the fragment, digest and witness for
    this glsn (crash-safe submit uses it to undo a torn placement).
    Returns whether anything was removed.  The ACL entry is revoked by
    the caller, which knows the ticket id. *)

val fragment_of : t -> Glsn.t -> (Attribute.t * Value.t) list option
(** The row's cells in {!Attribute.compare} order; [None] if the glsn
    has no row. *)

val digest_of : t -> Glsn.t -> Bignum.t option
val witness_of : t -> Glsn.t -> Bignum.t option

val glsns : t -> Glsn.t list
(** Sorted ascending. *)

val record_count : t -> int

val fold_column :
  t -> Attribute.t -> ('acc -> Glsn.t -> Value.t -> 'acc) -> 'acc -> 'acc
(** [fold_column t attr f init] folds [f] over every stored cell of one
    attribute, by ascending glsn: one pass over the column, which stays
    private to the node. *)

val fold_column_pair :
  t ->
  Attribute.t ->
  Attribute.t ->
  ('acc -> Glsn.t -> Value.t -> Value.t -> 'acc) ->
  'acc ->
  'acc
(** [fold_column_pair t a b f init] folds [f] over every glsn that holds
    a cell of [a] and a cell of [b], by ascending glsn, passing both
    values: one merge-scan of the two columns. *)

val acl : t -> Access_control.t
(** This node's copy of the cluster access-control table. *)

(** {1 Replicas}

    A node may hold encrypted-at-rest replicas of *other* nodes'
    fragments for availability ("measures must be taken so that the DLA
    cluster as a whole has the complete log", §2).  Replicas are stored
    as opaque wire blobs keyed by (owner, glsn): the replica holder can
    return them for repair but gains no plaintext columns (the blob is
    sealed with ChaCha20-Poly1305 under the owner's HKDF-derived key,
    with the glsn as nonce and associated data; the ledger records
    only ciphertext observations). *)

val store_replica :
  t -> owner:Net.Node_id.t -> glsn:Glsn.t -> blob:string -> unit

val replica_of : t -> owner:Net.Node_id.t -> Glsn.t -> string option

(** {1 Hinted handoff}

    When a fragment's home node is down at submit time, the crash-safe
    submit path parks the fragment — AEAD-sealed under the {e target}'s
    handoff key, so the holder observes ciphertext only — on a ring
    successor together with the record's digest, the target's witness
    and the authorizing ticket id.  [Cluster.drain_hints] delivers the
    parked fragments once the target is back. *)

type hint = {
  hint_target : Net.Node_id.t;  (** the down node this is destined for *)
  hint_glsn : Glsn.t;
  hint_blob : string;  (** fragment wire, sealed under the target's key *)
  hint_digest : Bignum.t;
  hint_witness : Bignum.t;
  hint_ticket : string;  (** ticket id to grant on delivery *)
}

val park_hint : t -> hint -> unit
val hints : t -> hint list
(** Oldest first. *)

val hint_count : t -> int

val take_hints_for : t -> target:Net.Node_id.t -> hint list
(** Remove and return this node's parked hints for one target, oldest
    first. *)

val drop_hints : t -> glsn:Glsn.t -> unit
(** Discard parked hints for a rolled-back glsn. *)

(** {1 Fault injection} *)

val tamper_set :
  t -> glsn:Glsn.t -> attr:Attribute.t -> Value.t -> bool
(** Overwrite a cell of a stored row, or add one, bypassing all checks
    (the attribute need not be supported); [false] if the row is
    absent. *)

val tamper_delete : t -> glsn:Glsn.t -> bool
(** Drop a whole fragment row; [false] if absent. *)
