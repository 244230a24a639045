(** Hierarchical spans, each over its own clock.

    Spans nest via {!with_span}; the enclosing dynamic extent defines
    the parent.  Each span reads the clock it was opened with — in this
    codebase always the virtual-time-ms of the network the span's work
    runs on ({!Smc.Proto_util.span}) — so span durations measure
    protocol latency, not wall time, and a span never reads another
    network's clock.  Completing a span also records a ["span.<name>"]
    histogram sample in the associated {!Metrics} registry, which is
    where the p50/p95/p99 latency figures in BENCH_*.json come from. *)

type span = {
  name : string;
  depth : int;  (** 0 for a root span *)
  start_ms : float;
  mutable duration_ms : float;
}

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh trace.  [?t] defaults to the process-wide trace, backed by
    {!Metrics.global}. *)

val with_span : ?t:t -> clock:(unit -> float) -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span, which reads [clock] when it opens
    and when it closes.  The span is closed (and its duration histogram
    sample recorded) even if the thunk raises. *)

val current_path : ?t:t -> unit -> string list
(** Names of the currently-open spans, outermost first — the "phase
    path" of whatever the instrumented code is doing right now.  Used by
    the spec layer's transcript recorder to stamp each wire observation
    with the protocol phase it happened in. *)

val spans : ?t:t -> unit -> span list
(** Completed spans in completion order (children before parents). *)

val reset : ?t:t -> unit -> unit
(** Drop completed spans and any open stack (for test isolation). *)
