(** Fragment replication and repair.

    §2 of the paper: "measures must be taken so that the DLA cluster as
    a whole has the complete log for every node in the application
    subsystem."  Each node pushes an encrypted-at-rest copy of every
    fragment it stores to its next [degree] ring successors.  The blob
    is AEAD-encrypted under a key only the owner holds, so replication
    adds {e availability} without widening {e exposure}: a replica
    holder observes ciphertext only (ledger-verified in tests).

    After data loss (disk tamper/crash), {!repair} restores any missing
    primary rows from surviving replicas — the owner fetches its blob
    back and decrypts with its own key.  Because only the owner holds
    the key, repair can only ever target the owner itself: while the
    owner is down its columns are unavailable (the executor degrades
    coverage instead of widening any node's observations). *)

type t
(** Replication state: degree plus the per-owner blob keys. *)

val setup : Cluster.t -> degree:int -> t
(** @raise Invalid_argument unless [1 <= degree < cluster size]. *)

val successors : Net.Node_id.t list -> Net.Node_id.t -> int -> Net.Node_id.t list
(** [successors ring node count]: the [count] ring successors of [node],
    wrapping around.
    @raise Invalid_argument when [node] is not a member of [ring]. *)

val replicate_all : ?retry:Net.Retry.t -> t -> Cluster.t -> int
(** Push (or refresh) replicas for every fragment currently stored;
    returns the number of replica blobs placed.  Without [retry] a
    non-delivery raises {!Net.Network.Partitioned}; with it, sends are
    retried under the policy and a persistently unreachable holder is
    skipped (that replica simply is not placed). *)

val repair : ?retry:Net.Retry.t -> t -> Cluster.t -> (Net.Node_id.t * Glsn.t) list
(** Scan every node for missing rows (every node stores a row — possibly
    with no columns — for every cluster glsn) and restore them from
    replicas.  Returns what was repaired; rows with no surviving replica
    — or, with [retry], whose holders stayed unreachable — are left
    missing (and will keep failing integrity checks), never silently
    corrupted: the AEAD tag rejects any blob that does not decrypt to
    the original fragment. *)

val repair_node :
  ?retry:Net.Retry.t -> t -> Cluster.t -> node:Net.Node_id.t ->
  (Net.Node_id.t * Glsn.t) list
(** Targeted {!repair} of a single recovered node — the executor's
    failover path after [bring_up]. *)
