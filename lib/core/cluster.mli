(** The DLA cluster (paper §2 Figure 2, §4).

    Owns the simulated network, its retry/failure-detector layer, the
    per-node fragment stores, the glsn allocation service, the ticket
    authority and the shared accumulator parameters.  The {!submit} flow
    is the paper's distributed logging path: ticket check → glsn
    assignment → fragmentation → per-node storage + ACL update →
    integrity-digest deposit — restructured as {e stage-then-commit} so
    a node failure mid-placement can never leave a torn record. *)

open Numtheory

type t

(** What {!submit} does when a fragment's home node stays unreachable
    after retries. *)
type durability =
  | Strict  (** abandon the whole placement: {!Rejected}, nothing stored *)
  | Degraded
      (** park the undeliverable fragment on a live ring successor
          (hinted handoff, sealed under the target's key) and commit the
          rest: {!Committed_degraded} *)

type submit_outcome =
  | Committed of Glsn.t  (** every fragment reached its home node *)
  | Committed_degraded of Glsn.t * Net.Node_id.t list
      (** committed, but the listed nodes' fragments are parked on ring
          successors awaiting {!drain_hints} *)
  | Rejected of string
      (** ticket/attribute rejection, or placement failure (nothing was
          stored anywhere) *)

val create :
  ?seed:int ->
  ?net:Net.Network.t ->
  ?glsn_start:int ->
  Fragmentation.t ->
  t
(** [glsn_start] overrides the allocator's first glsn (snapshot import
    uses it to reproduce an exported numbering).  The cluster's retry
    layer is a {!Net.Retry.t} over [net], seeded with [seed]; the
    accumulator modulus has 128 bits. *)

val net : t -> Net.Network.t

val retry : t -> Net.Retry.t
(** The cluster's retry layer / failure detector — ask it who is
    currently reachable. *)

val fragmentation : t -> Fragmentation.t
val nodes : t -> Net.Node_id.t list
val store_of : t -> Net.Node_id.t -> Storage.t
(** @raise Invalid_argument naming the node for a node outside the
    cluster. *)

val quarantine : t -> Net.Node_id.t -> unit
(** Fence [node] from audit rounds after a Byzantine accusation.  The
    node stays in the cluster (its stores and fragments are intact) but
    the executor treats it as unavailable and session caches drop
    every glsn-set it contributed to.  Idempotent; bumps the
    [cluster.quarantine] metric on the first call. *)

val lift_quarantine : t -> Net.Node_id.t -> unit
(** Re-admit [node] — the Byzantine layer's re-hosting step: the
    compromised process was replaced by an honest replica over the same
    fragment data. *)

val is_quarantined : t -> Net.Node_id.t -> bool

val quarantined : t -> Net.Node_id.t list
(** Currently fenced nodes, sorted. *)

val stores : t -> Storage.t list
val accumulator_params : t -> Crypto.Accumulator.params
val rng : t -> Prng.t

val advance_time : t -> int -> unit
(** Also ages the retry layer's circuit-breaker cooldowns. *)

val issue_ticket :
  t ->
  id:string ->
  principal:Net.Node_id.t ->
  rights:Ticket.right list ->
  ttl:int ->
  Ticket.t

val verify_ticket : t -> Ticket.t -> (unit, string) result
(** MAC + expiry check against the cluster's ticket authority. *)

val ticket_authorizes : t -> Ticket.t -> Ticket.right -> bool

val submit :
  ?durability:durability ->
  t ->
  ticket:Ticket.t ->
  origin:Net.Node_id.t ->
  attributes:(Attribute.t * Value.t) list ->
  submit_outcome
(** Log one event, crash-safely ([durability] defaults to [Degraded]).

    The placement is staged first (glsn, fragments, digest, witnesses),
    then delivery is attempted to every home node under the cluster's
    retry policy, and only then is anything committed.  Outcomes:

    - every fragment delivered → [Committed];
    - some home nodes unreachable, [Degraded] → each fragment is parked
      (AEAD-sealed) on its home's first ring successor that is up and
      reachable, wrapping past the end of the ring →
      [Committed_degraded] naming the down nodes;
    - some home nodes unreachable, [Strict] — or no live successor can
      hold the hint → [Rejected]: {e nothing} is stored anywhere (the
      allocated glsn is burned but appears in no store);
    - invalid/expired ticket, wrong principal, missing write right, an
      attribute no node supports, or a string value holding NUL (cross
      atoms NUL-pad strings) → [Rejected], naming the attribute. *)

val to_result : submit_outcome -> (Glsn.t, string) result
(** Collapse an outcome for callers that only need the glsn: both
    committed outcomes are [Ok]. *)

val drain_hints : t -> (Net.Node_id.t * Glsn.t) list
(** Deliver parked fragments whose target is back up: the holder ships
    the sealed blob to the target, which opens it with its own handoff
    key and stores fragment + digest + witness + ACL grant exactly as a
    direct placement would.  Returns the (target, glsn) pairs delivered;
    hints whose target is still unreachable stay parked. *)

val pending_hints : t -> (Net.Node_id.t * Net.Node_id.t * Glsn.t) list
(** Currently parked fragments as [(holder, target, glsn)]. *)

val submit_transaction :
  t ->
  ticket:Ticket.t ->
  origin:Net.Node_id.t ->
  tsn:int ->
  ttn:int ->
  events:(Attribute.t * Value.t) list list ->
  (Log_record.Transaction.t * Net.Node_id.t list, string) result
(** Log a multi-event transaction (eq 1); [tid]/[tsn] bookkeeping
    attributes are the caller's business — this just submits each event
    under the same ticket, with {!submit}'s default [Degraded]
    durability, and groups the results.  Crash-safe: if a later event
    is rejected, the earlier events of this transaction are rolled back
    (fragments, digests, witnesses, ACL grants and parked hints all
    removed) before the error is returned.  The node list aggregates
    any degraded placements. *)

val record_of : t -> Glsn.t -> Log_record.t option
(** Reassemble a full record from all fragments — a *cluster-collusion*
    operation used by tests and the centralized baseline; it is exactly
    what no single node can do alone.  A record with parked (not yet
    drained) fragments reassembles partially.  [None] when no node holds
    a cell of the glsn, or when its cells do not form one record (one
    attribute stored on two nodes, which only tampering produces;
    {!Integrity.check_all} reports such a row as a violation).
    @raise nothing *)

val all_glsns : t -> Glsn.t list
val record_count : t -> int

val integrity_digests : t -> (Glsn.t * Bignum.t) list
(** Every stored record's digest, glsn-ascending — what a checkpoint
    summarizes (via {!Crypto.Accumulator.summarize}) to commit to "all
    records so far" without enumerating cleartext. *)

val on_commit : t -> (Glsn.t -> unit) -> unit
(** Register a hook fired (in registration order) after every committed
    placement — [Committed] and [Committed_degraded] alike — and again
    for each glsn whose parked fragment {!drain_hints} later delivers.
    Hooks must therefore be idempotent per glsn; the continuous-audit
    engine's insert-only deltas are.  Hooks run inside the submit span,
    on the cluster's virtual clock. *)

val on_rollback : t -> (Glsn.t -> unit) -> unit
(** Register a hook fired when a transaction rollback removes a
    previously committed glsn. *)
