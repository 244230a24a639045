(** Simulated cluster network.

    Deterministic, synchronous-orchestration network model: protocol code
    calls {!send} for every message it passes between principals, and the
    network accounts messages, bytes, per-label traffic and virtual time,
    and applies fault injection (down nodes, probabilistic drops).

    Protocols mark synchronization points with {!round}; the paper's
    protocols are all ring- or star-shaped, so "rounds × latency" is the
    faithful latency model for them.

    On the wire the model now accounts two layers: the §3 {e logical}
    message counters ([net.msgs], [net.msg.<label>], …), which the
    cost-model pins freeze, and the {e frame} counters
    ([net.frame.sends] / [net.frame.msgs] / [net.frame.bytes] /
    [net.frame.coalesced]) describing the physical frames those
    messages ride.  With [Config.coalesce] set, all messages between
    one (src, dst) pair inside a round window share a single frame and
    its one {!frame_header_bytes} header; logical counters never
    move. *)

type t

type delivery =
  | Delivered
  | Dropped of string
      (** reason: {!Delivery_error.to_string} of the typed cause *)

type stats = {
  messages : int;  (** delivered messages *)
  bytes : int;
  rounds : int;
  dropped : int;  (** non-delivered sends (down nodes + loss) *)
  frames : int;  (** wire frames opened (= [messages] unless coalescing) *)
  frame_msgs : int;  (** messages carried by frames (= [messages]) *)
  frame_bytes : int;  (** payload + one header per frame *)
  virtual_time_ms : float;
  by_label : (string * int) list;  (** delivered count per protocol label *)
  dropped_by_label : (string * int) list;
      (** drop count per protocol label — offered minus delivered traffic
          for the fault experiments *)
}

val frame_header_bytes : int
(** Accounting cost of one frame header (count + length prefixes),
    paid once per frame however many messages coalesce into it. *)

val of_config : Config.t -> t
(** The constructor.  The network itself reads seed, latency, loss and
    [coalesce] (this module is the one implementation of frame
    coalescing).  [max_pipeline_depth] is carried for
    [Audit_session], which reads it through {!config}; no library code
    reads [domains]. *)

val config : t -> Config.t
(** The configuration this network was built from. *)

val ledger : t -> Ledger.t
(** The shared observation ledger (see {!Ledger}). *)

val send :
  t -> src:Node_id.t -> dst:Node_id.t -> label:string -> bytes:int -> delivery
(** Account one message.  Returns [Dropped _] if the destination is down
    or the message was lost; the caller decides how the protocol reacts.
    Non-deliveries are counted in {!stats}' [dropped] fields. *)

val send_exn :
  t -> src:Node_id.t -> dst:Node_id.t -> label:string -> bytes:int -> unit
(** Like {!send} but raises {!Partitioned} on non-delivery — for protocol
    phases that have no recovery path. *)

exception Partitioned of { src : Node_id.t; dst : Node_id.t; reason : string }

val round : ?label:string -> t -> unit
(** Mark the end of a communication round; advances virtual time by the
    maximum latency charged since the previous round, and closes the
    frame-coalescing window.  [label] (the protocol name, e.g. ["sum"])
    additionally bumps the per-protocol ["net.rounds.<label>"] counter
    in {!Obs.Metrics.global}, which is what the paper-conformance cost
    tests assert against. *)

val charge_wait_ms : t -> float -> unit
(** Advance virtual time by a pure wait (retry backoff, cooldown):
    time passes but no messages move.  Negative/zero charges are
    ignored. *)

val virtual_time_ms : t -> float
(** Current virtual clock (same value as [stats].virtual_time_ms). *)

val take_down : t -> Node_id.t -> unit
val bring_up : t -> Node_id.t -> unit
val is_up : t -> Node_id.t -> bool

val down_nodes : t -> Node_id.t list
(** Currently crashed nodes, sorted. *)

val stats : t -> stats
val reset_stats : t -> unit
(** Zero the counters but keep topology, faults and the ledger. *)

val pp_stats : Format.formatter -> stats -> unit
