(** Minimal JSON value type with an emitter and a parser.

    Just enough for the telemetry sink (BENCH_*.json) and the baseline
    diff tool — no dependency, no streaming.  Numbers are floats;
    integral values print without a decimal point so counter values
    round-trip textually. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val pretty : t -> string
(** Two-space-indented rendering with a trailing newline — the format
    of checked-in baselines, so git diffs stay per-key. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON document (trailing whitespace allowed).
    Errors carry a byte offset.  Total: any input, including arrays or
    objects nested past 512 levels, yields [Ok] or [Error] and never
    raises. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val to_num : t -> float option
val to_str : t -> string option
