(** Reactor runtime: the discrete-event engine, for the protocols whose
    outcome depends on timing (the §4.1 asynchronous integrity
    circulation, with its timeouts), plus wire-frame coalescing, a
    compute-domain pool, and the virtual-time pipeline scheduler that
    batched audit sessions use to overlap independent SMC clause
    evaluations.  The synchronous §3 protocols need none of this:
    {!Network} accounts them round by round.

    One {!Config.t} configures everything.  Determinism contract: at
    any [domains], [max_pipeline_depth] and [coalesce] setting, message
    payloads, handler invocation order within a frame, verdicts and
    transcripts are byte-identical to the width-1, depth-1,
    frame-per-message engine — the knobs move wall-clock and the
    [net.frame.*] accounting, never results.  (Coalescing merges
    same-slot events, which can reorder deliveries {e between
    different destinations} at one instant; engines that require the
    legacy global FIFO order leave [coalesce] off, as {!Config.default}
    does.) *)

type 'msg t

val create : Config.t -> 'msg t
(** A fresh reactor; spawns [config.domains - 1] worker domains (none
    at the default width 1).  Call {!shutdown} on pools wider than 1
    when done. *)

val config : 'msg t -> Config.t

val now : 'msg t -> float
(** Current virtual time, ms. *)

val on_message :
  'msg t -> Node_id.t -> (src:Node_id.t -> 'msg -> unit) -> unit
(** Install (or replace) a node's message handler.  Messages delivered
    to a node without a handler are dropped as
    {!Delivery_error.No_handler}. *)

val send : 'msg t -> src:Node_id.t -> dst:Node_id.t -> 'msg -> unit
(** Schedule a delivery after the link latency; may be lost.
    With [coalesce] on, a send resolving to the same (src, dst,
    delivery instant) as an already-scheduled frame rides that frame
    instead of opening a new one. *)

val set_timer : 'msg t -> delay_ms:float -> (unit -> unit) -> unit
(** Schedule a callback at [now + delay_ms]. *)

val take_down : 'msg t -> Node_id.t -> unit
(** Down nodes neither receive nor send; messages to them are dropped. *)

val bring_up : 'msg t -> Node_id.t -> unit

val run : ?until_ms:float -> 'msg t -> int
(** Process events until the queue drains (or virtual time passes
    [until_ms]); returns the number of events processed (frames +
    timers). *)

val delivered : 'msg t -> int
(** Messages handed to a handler. *)

val dropped : 'msg t -> int
(** Messages that never reached one, every cause combined. *)

val drops : 'msg t -> (Delivery_error.t * int) list
(** Typed breakdown of {!dropped}, in {!Delivery_error.all} order;
    causes with a zero count are omitted. *)

val frames : 'msg t -> int
(** Wire frames scheduled.  Equals sends accepted when [coalesce] is
    off; at most that when on. *)

val coalesced : 'msg t -> int
(** Messages that rode an already-scheduled frame (0 with [coalesce]
    off). *)

val pool : 'msg t -> Numtheory.Domain_pool.t
(** The reactor's compute pool, sized by [config.domains]. *)

val with_compute : 'msg t -> (unit -> 'a) -> 'a
(** Run a thunk with the reactor's pool installed as the ambient
    {!Numtheory.Domain_pool.current}, so {!Numtheory.Modular.pow_many}
    batches (every ∩ₛ/∪ₛ ring hop) farm to it. *)

val shutdown : 'msg t -> unit
(** Fence and join the worker domains; idempotent, no-op at width 1. *)

(** Virtual-time pipeline scheduler.

    Replays a sequence of clause evaluations — each a (resource set,
    virtual duration) pair measured against the synchronous engine —
    onto a pipelined clock: a job starts once every storage node it
    touches is free {e and} a free in-flight slot exists (at most
    [max_depth] concurrent evaluations).  Execution itself stays in the
    deterministic sequential order; only the clock model changes, which
    is what keeps pipelined transcripts byte-identical while
    [pipelined_ms] shrinks below [sequential_ms]. *)
module Pipeline : sig
  type t

  type report = {
    jobs : int;
    peak_depth : int;  (** widest concurrency actually reached *)
    sequential_ms : float;  (** sum of job durations: the depth-1 clock *)
    pipelined_ms : float;  (** makespan on the pipelined clock *)
  }

  val create : ?max_depth:int -> unit -> t
  (** @raise Invalid_argument if [max_depth < 1] (default 4). *)

  val submit : t -> resources:string list -> duration_ms:float -> unit
  (** Schedule the next job in sequence order.  [resources] are the
      serialization keys (storage-node names) the job occupies for its
      whole duration; an empty list means the job only contends for an
      in-flight slot.
      @raise Invalid_argument on a negative or non-finite duration. *)

  val report : t -> report
end
