(** The paper's worked example: Table 1's five-row global event log, the
    Tables 2–5 fragment layout, and Table 6's tickets. *)

val attributes : Dla.Attribute.t list
(** Table 1's columns in order: time, id, protocl, tid, C1, C2, C3. *)

val rows : (Dla.Attribute.t * Dla.Value.t) list list
(** The five Table 1 rows (glsn's come from the cluster allocator). *)

val build :
  ?seed:int -> ?net:Net.Network.t -> unit -> Dla.Cluster.t * Dla.Glsn.t list
(** A 4-node cluster with the paper's partition (Tables 2–5), the five
    rows submitted under the Table 6 tickets.  Returns the assigned
    glsn's in row order.  [net] substitutes a pre-built network (e.g. a
    {!Spec.Schedule} one) for the default clean network. *)

val build_centralized : unit -> Dla.Centralized.t * Dla.Glsn.t list
(** The same five rows in the Figure 1 centralized baseline, on a fresh
    clean network. *)

val render_global_table : Dla.Cluster.t -> Dla.Glsn.t list -> string
(** Re-render Table 1 from cluster state (requires reassembly —
    deliberately a whole-cluster operation). *)

val render_fragment_tables : Dla.Cluster.t -> string
(** Re-render Tables 2–5: each node's own view. *)

val render_acl_table : Dla.Cluster.t -> string
(** Re-render Table 6 from any node's access-control table. *)
