(** Per-node access-control tables (paper §4, Table 6).

    "Each audit node maintains the same access control table for every
    global log sequence number.  Each assigned glsn is authorized by some
    ticket.  Once some glsn is assigned … this glsn will be added to the
    access table under the entry of that ticket's ID." *)

type t

val create : unit -> t

val grant : t -> ticket_id:string -> Glsn.t -> unit
(** Add a glsn under a ticket's entry (idempotent). *)

val revoke : t -> ticket_id:string -> Glsn.t -> unit

val glsns_of : t -> ticket_id:string -> Glsn.Set.t

val authorizes : t -> ticket_id:string -> Glsn.t -> bool

val ticket_ids : t -> string list
(** Sorted. *)

val entries : t -> (string * Glsn.t list) list
(** Table 6 rows: ticket id to sorted glsn list. *)

val tamper_move : t -> glsn:Glsn.t -> from_ticket:string -> to_ticket:string -> bool
(** Fault injection for the §4.1 consistency check: move a glsn between
    entries as a compromised node would.  Returns whether anything
    changed. *)

