(** One configuration surface for both network engines.

    {!Network} (synchronous round accounting) and {!Runtime}
    (discrete-event reactor) accept the same value: build one with
    {!make} and hand it to [Network.of_config] or [Runtime.create], so
    a schedule that wants the same seed, latency profile and loss rate
    on both engines states them once.

    Which code reads which field:
    - [Runtime] reads [seed], [latency_ms] and [loss_rate];
    - [Network] reads those three and [coalesce], which turns on its
      wire-frame accounting of same-(src, dst) messages in one round
      window;
    - [Audit_session] reads [max_pipeline_depth] from its network's
      config: how many independent SMC clause evaluations its
      virtual-time pipeline keeps in flight;
    - no library code reads [domains].  It stays because [bench/perf]
      records the defaults; a caller that wants a compute pool creates
      a {!Numtheory.Domain_pool} and installs it itself.

    Neither [coalesce] nor [max_pipeline_depth] may change results:
    transcripts and verdicts are byte-identical at any setting (the
    differential pipeline suite enforces this); only the [net.frame.*]
    and [audit.pipeline.*] accounting move. *)

type t = {
  seed : int;
  latency_ms : Node_id.t -> Node_id.t -> float;
  loss_rate : float;  (** in [\[0, 1)] *)
  domains : int;  (** >= 1; read by no library code *)
  max_pipeline_depth : int;  (** clause evaluations in flight, >= 1 *)
  coalesce : bool;  (** batch same-(src, dst, time) messages into frames *)
}

val default : t
(** Seed 0, uniform 1.0 ms latency, no loss, [domains = 1], depth 4,
    no coalescing — the seed-state behaviour of every engine. *)

val make :
  ?seed:int ->
  ?latency_ms:(Node_id.t -> Node_id.t -> float) ->
  ?loss_rate:float ->
  ?domains:int ->
  ?max_pipeline_depth:int ->
  ?coalesce:bool ->
  unit ->
  t
(** {!default} with overrides, validated.
    @raise Invalid_argument on a loss rate outside [\[0, 1)],
    [domains < 1] or [max_pipeline_depth < 1]. *)

val latency_profile :
  seed:int ->
  ?min_ms:float ->
  ?max_ms:float ->
  unit ->
  Node_id.t ->
  Node_id.t ->
  float
(** Deterministic skewed link latencies: each (src, dst) pair gets a
    fixed pseudo-random latency in [\[min_ms, max_ms)] (defaults 0.5
    and 8.0) derived purely from [seed] and the pair — usable as the
    [latency_ms] of any engine, which is how the spec layer's
    differential schedules reorder protocol traffic without touching
    protocol code.
    @raise Invalid_argument unless [0 < min_ms <= max_ms]. *)
