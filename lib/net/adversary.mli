(** Seeded Byzantine adversary for the simulated network.

    The paper's DLA protocol (§2–§3) assumes semi-honest cluster nodes;
    this module models what happens when that assumption fails.  An
    adversary is a set of {e plans}: per-node behaviors that tamper with
    SMC payloads on the wire — equivocation, ciphertext corruption,
    share forgery, ring-pass drop/replay/reorder — deterministically
    derived from a seed so every run replays exactly.

    Installation follows the [Proto_util.transcript_hook] pattern: an
    adversary made [current] via {!with_active} is consulted by
    [Smc.Proto_util] on every payload delivery.  With no adversary
    installed (the default), delivery is the identity and the honest
    path is byte-identical to a run without this module.

    Quarantining a node models the recovery story of the Byzantine
    layer: the compromised process has been fenced (re-hosted on an
    honest replica), so its plans stop firing.  Tests and the bench use
    {!injections} as ground truth for which lies were actually told. *)

open Numtheory

(** Node behaviors, composable across an adversary's plans. *)
type behavior =
  | Equivocate  (** different payloads to different peers *)
  | Corrupt  (** perturb every ciphertext in the payload *)
  | Forge_share  (** perturb a Shamir share (sequence-dependent) *)
  | Drop  (** deliver an empty payload *)
  | Replay  (** deliver the previous payload sent on this label *)
  | Reorder  (** reverse the payload element order *)

val behavior_to_string : behavior -> string

type plan = {
  node : Node_id.t;  (** the lying node (payload source) *)
  behavior : behavior;
  labels : string list option;
      (** restrict to these message labels; [None] = every label *)
}

val plan : ?labels:string list -> Node_id.t -> behavior -> plan
(** [plan node behavior] fires on every send by [node] whose label
    matches. *)

(** One recorded lie: the tampered payload actually differed from the
    honest one.  A plan that fires but leaves the payload unchanged
    (e.g. [Reorder] of a singleton) records nothing. *)
type injection = {
  by : Node_id.t;
  dst : Node_id.t;
  label : string;
  seq : int;  (** per-(node, plan) matching-send counter *)
  behavior : behavior;
}

type t

val create : seed:int -> plan list -> t

val colluders : t -> Node_id.t list
(** Distinct planned nodes, sorted. *)

val tamper :
  t -> src:Node_id.t -> dst:Node_id.t -> label:string -> Bignum.t list
  -> Bignum.t list
(** The payload [dst] actually receives.  Identity when [src] has no
    matching live plan or is quarantined. *)

val quarantine : t -> Node_id.t -> unit
(** Fence [node]: its plans stop firing (the process was re-hosted on
    an honest replica). *)

val is_quarantined : t -> Node_id.t -> bool
val quarantined : t -> Node_id.t list

val injections : t -> injection list
(** Chronological log of actual lies — ground truth for detection
    tests. *)

val injected_nodes : t -> Node_id.t list
(** Distinct nodes that actually lied, sorted. *)

val current : unit -> t option

val with_active : t -> (unit -> 'a) -> 'a
(** Install [t] as the adversary consulted by [Smc.Proto_util] for the
    duration of the callback (restored on exit, exceptions included). *)
