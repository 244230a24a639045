(** Tamper-evident checkpoint chain for continuous audits.

    Every [interval] commits, the continuous engine folds the cluster's
    current integrity digests ({!Crypto.Accumulator.summarize} — eq 9
    makes the fold enumeration-order-free) and its running delta-stream
    hash into a checkpoint, and hash-links it to its predecessor:

    {v digest_i = SHA-256("ckpt|" i "|" commits "|" digest_{i-1}
                          "|" accumulator "|" delta_hash) v}

    A verifier holding only the chain (and, for truncation resistance,
    the latest digest from an out-of-band anchor) replays the links and
    detects any drop, reorder, in-place mutation, or splice — with a
    {e typed} reason — without ever seeing a cleartext record or glsn:
    every field is a commitment or a count (Definition-1 metadata). *)

type checkpoint = {
  index : int;  (** position in the chain, from 0 *)
  commits : int;  (** commits processed when the checkpoint was cut *)
  prev : string;  (** predecessor digest; {!genesis} for index 0 *)
  accumulator : string;
      (** SHA-256 (hex) of the accumulator summary over every stored
          record's integrity digest *)
  delta_hash : string;  (** running hash over the emitted delta stream *)
  digest : string;  (** this checkpoint's own digest *)
}

val genesis : string
(** The all-zero 64-hex predecessor of checkpoint 0. *)

val recompute_digest : checkpoint -> string
(** The digest the checkpoint's fields imply — equal to [digest] iff
    the checkpoint is unmutated. *)

(** {1 Building a chain} *)

type chain

val create : unit -> chain

val checkpoints : chain -> checkpoint list
(** Oldest first — the list {!verify_chain} takes. *)

val head : chain -> string option
(** Digest of the newest checkpoint; [None] on an empty chain.  This is
    the value to anchor out of band. *)

val append :
  chain -> commits:int -> accumulator:string -> delta_hash:string -> checkpoint
(** Cut and link the next checkpoint.
    @raise Invalid_argument unless both digests are 64 hex chars. *)

(** {1 Verification} *)

type tamper =
  | Bad_genesis of { found_prev : string }
      (** checkpoint 0 does not link to {!genesis} *)
  | Bad_index of { position : int; found : int }
      (** the checkpoint at [position] carries a different index —
          a dropped or reordered checkpoint *)
  | Bad_digest of { index : int }
      (** stored digest does not match the fields — in-place mutation *)
  | Broken_link of { index : int; expected_prev : string; found_prev : string }
      (** [prev] is not the predecessor's digest — a spliced segment *)
  | Head_mismatch of { expected : string; found : string option }
      (** the replayed head differs from the trusted anchor — the tail
          was truncated or replaced by a forgery *)

val tamper_to_string : tamper -> string

val verify_chain : ?head:string -> checkpoint list -> (unit, tamper) result
(** Replay the chain oldest-first: indices must count from 0, every
    digest must recompute from its fields, every [prev] must equal the
    predecessor's digest.  With [head] (the out-of-band trusted
    anchor), the final digest must match it — without an anchor,
    dropping a {e suffix} is undetectable, which is exactly why the
    engine publishes each head to the verifier as it is cut.  The
    empty chain verifies (against no anchor). *)
