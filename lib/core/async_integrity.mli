(** Asynchronous integrity circulation (§4.1), with link latency and a
    timeout.

    The synchronous {!Integrity.check_record} abstracts the ring
    circulation as straight-line orchestration.  This module times it:
    one accumulator token walks the ring, reaching the initiator after
    one link latency and each later node one latency after the previous
    one.  Every node folds its fragment into the token and forwards it;
    the initiator arms a timeout right after the kick-off, so a dead or
    silent node yields a [Timed_out] verdict instead of a hang.  The
    kick-off wins a tie with the timeout and every later arrival loses
    one.  Tests assert the two implementations agree wherever both are
    defined. *)

type verdict =
  | Intact
  | Mismatch  (** circulation completed but the digest differs *)
  | Timed_out of Net.Node_id.t option
      (** no answer in time; the payload is the last node known to have
          forwarded, i.e. the failure is at or after its successor *)
  | No_digest

val verdict_to_string : verdict -> string

val check_record :
  Cluster.t ->
  ?latency_ms:float ->
  ?timeout_ms:float ->
  ?down:Net.Node_id.t list ->
  initiator:Net.Node_id.t ->
  Glsn.t ->
  verdict * float
(** Run one asynchronous circulation; returns the verdict and the
    virtual completion time in ms: the token's return to the initiator,
    or [timeout_ms] when it stalls.  [down] nodes neither receive nor
    forward.
    @raise Invalid_argument if [initiator] is not a cluster member, on
    a negative or non-finite [timeout_ms],
    or on a [latency_ms] that puts a send the initiator or a node makes
    in time at a negative or non-finite instant. *)
