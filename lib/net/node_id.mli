(** Identities of the principals in the paper's system model (§2).

    - [User i] — application-subsystem node u_i that generates log records;
    - [Dla i] — cluster node P_i running the logging/auditing service;
    - [Ttp name] — a blind coordinator for TTP-assisted comparisons (§3.2,
      §3.3);
    - [Authority] — the credential authority of the membership protocol
      (§4.2);
    - [Auditor] — the (possibly external) party that initiates auditing
      queries and receives final results. *)

type t =
  | User of int
  | Dla of int
  | Ttp of string
  | Authority
  | Auditor

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
val dla_ring : int -> t list
(** [dla_ring n] is [\[Dla 0; ...; Dla (n-1)\]] in ring order. *)

val users : int -> t list

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
