(** Distributed integrity cross-checking (paper §4.1).

    At logging time the user deposited, at every node, the one-way
    accumulator of all the record's fragments, [A(x0, Log_0, …, Log_{n-1})].
    To check a record, an initiator circulates an intermediate value
    around the ring; each node folds in the fragment it stores (keyed by
    glsn) and forwards.  Quasi-commutativity (eq 9) makes the circulation
    order irrelevant, so the final value must equal the deposit — while
    no node ever reveals its fragment to the others. *)

type violation =
  | No_digest  (** initiator holds no deposited value for the glsn *)
  | Missing_fragment of Net.Node_id.t  (** a node lost/deleted its row *)
  | Digest_mismatch  (** some node's stored data no longer matches *)

val violation_to_string : violation -> string

val check_record :
  Cluster.t -> initiator:Net.Node_id.t -> Glsn.t -> (unit, violation) result
(** One ring circulation for one record.
    @raise Invalid_argument if [initiator] is not a cluster member. *)

val check_all :
  Cluster.t -> initiator:Net.Node_id.t -> (Glsn.t * violation) list
(** Sweep every glsn the cluster knows; returns only the violations.
    @raise Invalid_argument if [initiator] is not a cluster member and
    the cluster holds a record. *)

val challenge_node :
  Cluster.t ->
  challenger:Net.Node_id.t ->
  node:Net.Node_id.t ->
  Glsn.t ->
  (unit, violation) result
(** Witness-based spot check (ref [27]): ask one node to prove that the
    fragment it stores under [glsn] is the one the user accumulated, by
    folding it into its deposited witness and matching the challenger's
    deposited total.  Two messages instead of a ring circulation —
    the cheap mode the integrity bench ablates against.
    @raise Invalid_argument if [challenger], or [node] when the
    challenger holds a digest for [glsn], is not a cluster member. *)

val acl_consistent :
  Cluster.t -> ttp_seed:int -> ticket_id:string -> bool
(** §4.1's last paragraph: use secure set intersection over each node's
    ACL entry for the ticket (glsn strings as elements); consistent iff
    the intersection has the same cardinality as every node's own set. *)
