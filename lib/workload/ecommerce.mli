(** Synthetic e-commerce transaction workload.

    The paper motivates DLA with "auditing of transactions from multiple
    independent sources" and non-repudiation of business transactions
    (§2).  This generator produces multi-event transactions — an order
    and its payment, logged by different application nodes — over the
    paper's attribute schema, parameterized so benches can sweep volume
    and shape. *)

type config = {
  users : int;  (** application nodes u_0 … u_{users-1} *)
  transactions : int;
  seed : int;
  max_amount_cents : int;
  protocols : string list;  (** drawn uniformly, default TCP/UDP *)
}

val default_config : config

type ground_truth = {
  total_volume_cents : int;  (** Σ amounts — target of the secure sum *)
  per_user_events : (int * int) list;  (** user index to event count *)
  transaction_ids : string list;
}

val events : config -> ((Dla.Attribute.t * Dla.Value.t) list * Net.Node_id.t) list
(** The raw event stream as [(attributes, origin)], in time order, over
    time, id, protocl, tid, C1 (units), C2 (amount) and C3 (memo). *)

val populate : Dla.Cluster.t -> config -> Dla.Glsn.t list * ground_truth
(** Issue one W/R ticket per user and submit all events. *)
