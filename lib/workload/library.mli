(** Library-circulation workload (paper §1, ref [7]: Camp–Tygar,
    "Providing Auditing While Protecting Privacy").

    The original secret-counting scenario: a library consortium must
    audit service statistics — checkouts per branch, uses of particular
    services, records touched per search — "without having to unveil the
    privacy of library patrons".  Events carry a patron id (C4), branch,
    service kind and item class; the auditor works through secret counts
    and sums only. *)

type config = {
  branches : int;
  patrons : int;
  events : int;
  seed : int;
}

val default_config : config

type ground_truth = {
  checkouts : int;
  searches : int;
  renewals : int;
  per_branch : (int * int) list;  (** branch index to event count *)
  heaviest_patron : string;  (** most active patron id *)
  heaviest_patron_events : int;
}

val events :
  config -> ((Dla.Attribute.t * Dla.Value.t) list * Net.Node_id.t) list
(** Over time, id (branch), protocl (service kind), tid (item class),
    C4 (patron id) and C1 (records touched). *)

val populate : Dla.Cluster.t -> config -> Dla.Glsn.t list * ground_truth
