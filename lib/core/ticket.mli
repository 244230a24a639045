(** Capability tickets (paper §4).

    "Before a user u_j can log (write) a message in a DLA cluster, it
    must obtain a ticket to authenticate the user and control the user's
    access operations (read/query, write/log, delete)."

    The paper points at Kerberos [28]; we realize the same interface with
    HMAC-SHA256 capability tokens minted by the cluster's ticket
    authority: unforgeable without the authority key, checkable by every
    DLA node, and scoped to an operation set and validity window. *)

type right = Read | Write | Delete

type t = private {
  id : string;  (** Table 6's "Ticket ID", e.g. "T1" *)
  principal : Net.Node_id.t;
  rights : right list;
  expires_at : int;  (** virtual-time expiry, seconds *)
  mac : string;
}

(** The minting service, holding the cluster's secret MAC key. *)
module Authority : sig
  type ticket := t
  type t

  val create : key:string -> t

  val issue :
    t ->
    id:string ->
    principal:Net.Node_id.t ->
    rights:right list ->
    expires_at:int ->
    ticket
  (** @raise Invalid_argument on an empty rights list. *)

  val verify : t -> ticket -> now:int -> (unit, string) result
  (** Checks MAC integrity and expiry; the error string says which
      check failed. *)

  val authorizes : t -> ticket -> now:int -> right -> bool
end

val forge : t -> rights:right list -> t
(** Test helper: alter a ticket's rights without knowing the authority
    key (keeps the stale MAC).  Verification must reject the result. *)
