(** Per-participant transcript recorder.

    Wraps a protocol execution and captures every value observation the
    protocol makes through {!Smc.Proto_util.observe} — i.e. everything
    any principal (participant, TTP role, receiver) sees cross the
    wire, stamped with the {!Obs.Trace} span path of the protocol phase
    it happened in.  The recorded transcript is the raw material for
    {!View_auditor}: the paper's Definition 1 is a statement about
    exactly these per-node views. *)

type event = Smc.Proto_util.wire_event

type t

val record : (unit -> 'a) -> 'a * t
(** Run the thunk with a recorder installed (via
    {!Smc.Proto_util.with_transcript_hook}) and return its result
    together with the captured transcript.  Observations from {e every}
    protocol run inside the thunk accumulate — including failed
    attempts that a retry loop abandons, which is intentional: a view
    leaked during an aborted run is still a leak.  Exceptions from the
    thunk propagate (and discard the transcript). *)

val events : t -> event list
(** All captured observations, oldest first. *)

val size : t -> int

val nodes : t -> Net.Node_id.t list
(** Every node that observed at least one value, sorted. *)

val aggregates : t -> Net.Node_id.t -> string list
(** The values a node observed at [Aggregate] sensitivity — its
    authorized final answers, oldest first. *)
