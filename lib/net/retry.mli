(** Retry/backoff send layer with a per-destination failure detector.

    The paper's DLA service is a trusted-third-party {e cluster} so that
    the log survives individual node failure; this module is the send
    discipline that makes the protocols live up to that: every send is
    retried under one fixed policy — up to 5 attempts, a 2 ms wait
    before the second, doubling up to a 50 ms cap, each wait spread by
    up to ±20% of seeded jitter — and a per-destination circuit breaker
    turns 3 consecutive failed attempts into a fast local "suspect"
    verdict for 100 ms of virtual time, so protocols can ask
    {!reachable} instead of timing out again and again.

    All waiting is {e virtual}: backoff charges the network's virtual
    clock ({!Network.charge_wait_ms}), so fault experiments report
    latency-under-faults deterministically.  Jitter is drawn from a
    dedicated seeded {!Numtheory.Prng} stream, independent of the
    network's loss stream. *)

type t

val create : ?seed:int -> Network.t -> t
(** [seed] (default 0) seeds the jitter stream. *)

type outcome =
  | Sent of { attempts : int; waited_ms : float }
  | Gave_up of { attempts : int; reason : string }
      (** [attempts = 0] with reason ["circuit open"] when the breaker
          fast-failed without touching the network *)

val send :
  t -> src:Node_id.t -> dst:Node_id.t -> label:string -> bytes:int -> outcome
(** Attempt delivery under the policy.  Success closes the destination's
    breaker; every failed attempt counts towards opening it. *)

type breaker_state = Closed | Open | Half_open

val breaker_of : t -> Node_id.t -> breaker_state
(** [Half_open]: the cooldown elapsed, the next send is a probe. *)

val reachable : t -> Node_id.t -> bool
(** [false] only while the destination's breaker is open and cooling
    down.  A closed or half-open breaker is "reachable" (sends will be
    attempted). *)

val suspects : t -> Node_id.t list
(** Destinations currently considered unreachable, sorted. *)

val reinstate : t -> Node_id.t -> unit
(** Force-close a breaker (e.g. after an external [bring_up] signal). *)

val tick : t -> float -> unit
(** Let [ms] of virtual time pass (charged to the network clock) —
    cooldowns age, no messages move. *)

val waited_ms : t -> Node_id.t -> float
(** Total backoff charged against this destination — the per-node
    virtual-time account. *)
