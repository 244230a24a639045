(** Typed audit-path errors.

    The planner, executor, auditor engine and session engine all report
    failures through this one variant, so callers can branch on the
    shape of the failure (retry on {!Unreachable}, reprompt on
    {!Parse_error}, …) instead of string-matching.  {!to_string}
    renders the historical display strings for CLIs and logs. *)

type aggregate_fault =
  | No_home  (** the attribute is not supported by any DLA node *)
  | String_column  (** sums are defined over numeric kinds only *)
  | Mixed_kinds  (** the column mixes value kinds under one attribute *)

type t =
  | Unknown_attribute of { attr : string }
      (** the planner found no home node for [attr] in the
          fragmentation map *)
  | Parse_error of { input : string; message : string }
      (** the criteria text did not parse; [message] is the parser's
          diagnostic *)
  | Unreachable of { node : Net.Node_id.t; during : string }
      (** a partition surfaced as an error (rather than as
          {!Net.Network.Partitioned}) — e.g. converted at a CLI
          boundary; [during] names the phase *)
  | Aggregate_error of { attr : string; fault : aggregate_fault }
      (** a secret-sum/mean aggregate over [attr] is undefined *)
  | No_matching_records
      (** an aggregate over an empty match set (mean of nothing) *)
  | Byzantine_fault of {
      accused : Net.Node_id.t list;
      during : string;
      detail : string;
    }
      (** the Byzantine layer ran out of recovery room: the accused
          nodes exceeded the collusion tolerance or the retry budget
          was exhausted; [accused] names every node caught lying *)

val to_string : t -> string
(** Human-readable rendering, byte-compatible with the strings the
    engine returned before errors were typed. *)

val of_partition : during:string -> node:Net.Node_id.t -> reason:string -> t
(** Wrap a caught {!Net.Network.Partitioned} payload. *)
