(** Seeded network schedules for the differential harness.

    A schedule is a recipe for the network a protocol executes on.  The
    protocols' answers must be independent of message timing and of
    loss/retry interleavings, so the harness replays every case on a
    {!suite} of schedules:

    - [uniform] — the default 1 ms-per-hop network;
    - [skewed]  — per-pair latencies from {!Net.Config.latency_profile},
      so rounds are paced by different bottleneck links;
    - [lossy]   — probabilistic message loss; {!run} retries the whole
      protocol on a fresh network (new seed each attempt, so the drop
      pattern differs) until an attempt completes without a partition.

    Retried attempts share whatever {!Transcript} recorder is
    installed, so views leaked during abandoned runs are audited
    too. *)

type t

val name : t -> string
(** ["uniform"], ["skewed"] or ["lossy"]. *)

val uniform : seed:int -> t

val lossy : ?max_attempts:int -> seed:int -> unit -> t
(** [max_attempts] bounds the retry loop explicitly (default 40, the
    historical retry budget).
    @raise Invalid_argument if [max_attempts < 1]. *)

val suite : seed:int -> unit -> t list
(** The three schedules above, derived from one chaos seed; the lossy
    member has {!lossy}'s default budget. *)

exception Gave_up of { schedule : string; attempts : int; reason : string }
(** The lossy retry loop stopped without a completed attempt.  Two
    causes, distinguished by [reason]: the attempt budget ran out on
    transient ("loss") partitions — with the configured loss rate a
    (deterministic, seeded) probability-≈0 event worth investigating —
    or an attempt hit a {e permanent} partition (a node that is down
    stays down no matter how the drop pattern is re-rolled), which
    fails fast instead of looping the differential harness through the
    whole budget. *)

val run : t -> (Net.Network.t -> 'a) -> 'a
(** Build the schedule's network and run the protocol on it.  On the
    lossy schedule, a transient {!Net.Network.Partitioned} (reason
    ["loss"]) aborts the attempt and the protocol is re-run on a
    freshly-seeded network; a permanent partition (a down endpoint)
    raises {!Gave_up} immediately; other exceptions propagate.
    @raise Gave_up on fail-fast or when the attempt budget is
    exhausted. *)

val run_many : t -> count:int -> (Net.Network.t list -> 'a) -> 'a
(** Like {!run} for a fleet: build [count] networks (one per shard of a
    sharded deployment), each seeded from the schedule seed and its
    fleet index, and run the protocol over all of them.  The lossy
    retry loop re-rolls {e every} network of the fleet on a transient
    loss, so retried attempts see a coherent fresh drop pattern.
    [run_many ~count:1] is byte-identical to {!run}.
    @raise Invalid_argument if [count < 1].
    @raise Gave_up as {!run}. *)
