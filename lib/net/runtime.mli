(** The virtual-time pipeline scheduler that batched audit sessions use
    to model overlapping independent SMC clause evaluations.  It moves
    no messages: {!Network} is the one network engine, and the §4.1
    asynchronous circulation ([Async_integrity]) walks its ring
    directly. *)

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
