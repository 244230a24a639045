(** Render a metrics registry (and optionally a trace) for humans and
    machines.

    The JSON document shape consumed by bench/diff_metrics and the CI
    drift check:

    {v
    { "experiment": "<id>",
      "machine":    { "<field>": "<value>", ... },   (optional)
      "counters":   { "<name>": <int>, ... },
      "histograms": { "<name>": { "count", "min", "max", "mean",
                                  "p50", "p95", "p99" }, ... } }
    v}

    Span latency percentiles appear as ["span.<name>"] histograms
    (recorded by {!Trace.with_span}).  [machine] carries provenance
    fields (toolchain version, word size); {!read_counters} and the
    drift check ignore it, so only toolchain-stable fields belong
    there. *)

val json_of :
  ?experiment:string ->
  ?machine:(string * string) list ->
  ?m:Metrics.t ->
  unit ->
  Json.t

val summary : ?m:Metrics.t -> ?trace:Trace.t -> unit -> string
(** Human-readable rendering: counters, histogram percentiles, and the
    completed span tree (indented by depth). *)

val write_file : path:string -> Json.t -> unit
(** Pretty-print the document to [path], creating the parent directory
    if missing (one level). *)

type read_error =
  | Missing_file of string  (** the path does not exist *)
  | Malformed of { path : string; detail : string }
      (** unreadable (a directory, no permission), unparseable JSON,
          no ["counters"] object, or a counter that is not an integer
          an [int] holds *)

val read_error_to_string : read_error -> string

val read_counters : path:string -> ((string * int) list, read_error) result
(** Read the ["counters"] object back out of a document written by
    {!write_file} (or [--metrics-out]).  A missing file is reported as
    {!Missing_file} — distinct from {!Malformed} — so callers like
    bench/diff_metrics can tell "baseline never generated" from
    "baseline corrupt" instead of dying on a raw [Sys_error].  Every
    other failure is {!Malformed}: a counter of [3.7] or [1e300] is
    rejected, never rounded or wrapped, so a corrupt baseline cannot
    diff clean.  Raises nothing. *)
