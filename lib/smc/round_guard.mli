(** Per-round verification guard for the SMC passes (Byzantine layer).

    The defense is a SHA-256 round-commitment exchange: before a ring
    pass is consumed, sender and receiver cross-check digests of the
    payload as claimed by the sender's honest protocol state and as
    actually received on the wire.  A mismatch is classified and
    recorded as a typed {!accusation} naming the lying node:

    - {e dropped} — the wire carried nothing while the sender claimed a
      non-empty payload;
    - {e replayed} — the wire digest matches an earlier commitment on
      the same (sender, label) channel;
    - {e corrupted} — any other divergence (covers ciphertext
      corruption, equivocation and reordering — the receiver-specific
      digest exchange is exactly what makes equivocation visible);
    - {e forged share} — recorded by [Smc.Sum]'s over-provisioned
      Shamir consistency vote rather than by digest comparison.

    Cost accounting: commitment traffic never touches
    [Net.Network.send] — the §3 cost-model counters ([net.msgs],
    [net.rounds.*]) are part of the paper's contract and must not move.
    Verification overhead is charged to the separate [byz.verify.msgs]
    / [byz.verify.bytes] metrics instead.

    Installation mirrors [Proto_util.transcript_hook]: a guard made
    current via {!with_guard} is consulted by [Proto_util] on every
    payload delivery; with no guard installed nothing is computed and
    the honest path is byte-identical. *)

open Numtheory

type reason = Corrupted | Dropped | Replayed | Forged_share

type accusation = {
  accused : Net.Node_id.t;
  label : string;  (** message label of the offending pass *)
  seq : int;  (** guard-wide pass sequence number *)
  reason : reason;
}

val accusation_to_string : accusation -> string

type t

val create : unit -> t

val digest : Bignum.t list -> string
(** Canonical 64-hex SHA-256 commitment over a payload. *)

val observe_pass :
  t ->
  src:Net.Node_id.t ->
  dst:Net.Node_id.t ->
  label:string ->
  claimed:Bignum.t list ->
  received:Bignum.t list ->
  string
(** Cross-check one pass; records an accusation against [src] on
    divergence and returns the claimed digest (what the receiver's
    ledger carries).  Charges the commitment exchange to the
    [byz.verify.*] metrics. *)

val accuse :
  t -> accused:Net.Node_id.t -> label:string -> reason:reason -> unit
(** Record an accusation from an out-of-band check (Shamir voting). *)

val charge : t -> msgs:int -> bytes:int -> unit
(** Account extra verification traffic (e.g. over-provisioned shares). *)

val accusations : t -> accusation list
(** Chronological. *)

val accused_nodes : t -> Net.Node_id.t list
(** Distinct accused nodes, sorted. *)

val verify_cost : t -> int * int
(** [(msgs, bytes)] of verification traffic charged to this guard. *)

val current : unit -> t option

val with_guard : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback (restored on exit). *)
