(** Asynchronous integrity circulation (§4.1) on the discrete-event
    reactor.

    The synchronous {!Integrity.check_record} abstracts the ring
    circulation as straight-line orchestration.  This module runs the
    same protocol as real message passing on {!Net.Runtime}: each node
    holds a handler that folds its fragment into the received
    accumulator and forwards it; the initiator arms a timeout so a dead
    or silent node yields a [Timed_out] verdict instead of a hang.
    Tests assert the two implementations agree wherever both are
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
    virtual completion time in ms.  [down] nodes neither receive nor
    forward. *)
