(** Confidential distributed event correlation (paper §1: "distributed
    event correlation for intrusion detection", ref [29]).

    Correlates events *across* the whole cluster using only the
    secret-counting audit mode: for each subject (e.g. a source id) and
    each sliding time window, the auditor learns a count — never which
    records, let alone their contents.  A subject whose cluster-wide
    count crosses the threshold raises an alert even when its per-host
    footprint is individually harmless. *)

type window = { window_start : int; window_length : int }

type alert = {
  subject : string;
  window : window;
  count : int;
  threshold : int;
}

val count_by_subject :
  Cluster.t ->
  auditor:Net.Node_id.t ->
  subject_attr:Attribute.t ->
  subjects:string list ->
  unit ->
  ((string * int) list, string) result
(** Cluster-wide event count per subject (secret counting). *)

val sliding_window_alerts :
  Cluster.t ->
  auditor:Net.Node_id.t ->
  subject_attr:Attribute.t ->
  subjects:string list ->
  from_time:int ->
  to_time:int ->
  window_seconds:int ->
  step_seconds:int ->
  threshold:int ->
  unit ->
  (alert list, string) result
(** Slide a window over [\[from_time, to_time)]; one secret-count query
    per (subject, window); alerts where count >= threshold.
    @raise Invalid_argument on non-positive window or step. *)
