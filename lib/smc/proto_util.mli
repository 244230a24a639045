(** Shared plumbing for the relaxed-SMC protocols (paper §3). *)

open Numtheory

val bignum_wire_size : Bignum.t -> int
(** Bytes a group element occupies on the wire: the length of the
    magnitude's minimal big-endian encoding (the sign is ignored; [0]
    for zero). *)

val ring_next : Net.Node_id.t list -> Net.Node_id.t -> Net.Node_id.t
(** Successor in ring order; the list must contain the node.
    @raise Invalid_argument otherwise. *)

val shuffle : Prng.t -> 'a list -> 'a list
(** Fisher–Yates; used to unlink decoded set elements from their owners
    in the secure-union decode phase. *)

val span : Net.Network.t -> string -> (unit -> 'a) -> 'a
(** Run one protocol phase inside an {!Obs.Trace} span whose clock is
    the network's virtual time (so span durations are simulated
    protocol latency). *)

val round : ?label:string -> Net.Network.t -> unit
(** Protocol round barrier: fence the ambient
    {!Numtheory.Domain_pool} (joining any farmed modexp chunks still in
    flight), then {!Net.Network.round}.  All SMC protocol modules mark
    their synchronization points through this, so the §3 round counters
    are unchanged while compute is guaranteed quiescent whenever
    virtual time advances. *)

type wire_event = {
  node : Net.Node_id.t;  (** who observed the value *)
  sensitivity : Net.Ledger.sensitivity;
  tag : string;
  value : string;
  phase : string list;
      (** open {!Obs.Trace} span names when the value was observed,
          outermost first — e.g. [\["smc.sum"; "smc.sum.exchange"\]] *)
}

val transcript_hook : (wire_event -> unit) option ref
(** When set, every {!observe} call (i.e. every per-node value
    observation a protocol makes) is also delivered here, rendered and
    stamped with the current span path — one event per observation, so
    a batch payload yields one event per element, in order.  The spec
    layer's transcript recorder is the intended consumer; protocol code
    never reads it. *)

val with_transcript_hook : (wire_event -> unit) -> (unit -> 'a) -> 'a
(** Install [hook] for the extent of the thunk, restoring whatever hook
    was installed before (hooks nest but do not stack: the innermost
    wins). *)

val observe :
  Net.Network.t ->
  node:Net.Node_id.t ->
  sensitivity:Net.Ledger.sensitivity ->
  tag:string ->
  Net.Ledger.payload ->
  unit
(** Record a per-node observation in the network's {!Net.Ledger} {e and}
    mirror it to {!transcript_hook}.  This is the only writer of the
    ledger: every protocol module and the audit path in [lib/core] route
    their observations through it (CI rejects any other
    [Net.Ledger.record] call in [lib/]), so an installed recorder sees
    the complete per-participant view of whole audits.  The payload is
    stored unrendered; it is rendered here only when a hook is
    installed. *)

val deliver :
  Net.Network.t ->
  src:Net.Node_id.t ->
  dst:Net.Node_id.t ->
  label:string ->
  Bignum.t list ->
  Bignum.t list
(** Byzantine layer: the payload [dst] actually receives.  Applies the
    installed {!Net.Adversary} (if any) and cross-checks the pass with
    the installed {!Round_guard} (if any), recording the commitment as
    a [Metadata] observation tagged ["byz:commit:<label>"] at [dst].
    With neither installed this is the identity — the honest path is
    byte-identical.  Does {e not} account any network traffic. *)

val deliver_share :
  Net.Network.t ->
  src:Net.Node_id.t ->
  dst:Net.Node_id.t ->
  label:string ->
  Bignum.t ->
  Bignum.t
(** {!deliver} for a single Shamir share ordinate.
    @raise Net.Network.Partitioned if an adversary drops the share. *)

val send_bignums :
  Net.Network.t ->
  src:Net.Node_id.t ->
  dst:Net.Node_id.t ->
  label:string ->
  Bignum.t list ->
  Bignum.t list
(** Account one message carrying the given group elements and record a
    [Ciphertext] observation of each at the destination (one
    {!Net.Ledger.Batch}, rendered by [Bignum.to_hex] on read); returns the
    payload as delivered (identical to the argument unless a Byzantine
    adversary is installed — see {!deliver}).  Protocol code must
    continue with the returned payload, exactly as a real receiver
    would: every ∩ₛ/∪ₛ ring hop relays through here, so the next
    node's layer goes on the values that actually arrived.
    @raise Net.Network.Partitioned on non-delivery. *)
