(** Distributed intrusion-detection workload (paper §1/§4.2 motivation:
    "distributed security breaching is usually an aggregated effect of
    distributed events, each of which alone may appear to be
    harmless").

    The generator produces background connection events across several
    monitored hosts and embeds a low-and-slow port scan: the attacker
    touches each host only a handful of times — under any single host's
    alert threshold — but the cluster-wide aggregate count betrays it.
    Detection is an auditing query plus a secure sum, so no host reveals
    its raw connection log. *)

type config = {
  hosts : int;  (** monitored application nodes *)
  background_events : int;
  probes_per_host : int;  (** attacker touches per host (low & slow) *)
  local_alert_threshold : int;
      (** per-host count a conventional IDS would need to fire *)
  seed : int;
}

val default_config : config

type ground_truth = {
  attacker : string;  (** source id of the scan, e.g. "evil7" *)
  attacker_total_events : int;
  background_sources : string list;
  max_background_per_source : int;
}

val populate : Dla.Cluster.t -> config -> Dla.Glsn.t list * ground_truth
(** Records over time, id (source), ip (target host), protocl and
    C1 (port). *)

val per_host_counts : config -> source:string -> (int * int) list
(** [(host, events by source at that host)] — shows the scan stays under
    the local threshold on every single host. *)
