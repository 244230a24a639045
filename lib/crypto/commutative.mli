(** Scheme-agnostic view of a commutative cipher.

    The SMC protocols (secure set intersection/union, paper §3.1, §3.4)
    only need, per node, a matched encrypt/decrypt pair plus a shared
    deterministic embedding of payloads into the message domain.  This
    module packages Pohlig–Hellman and the XOR pad behind that common
    shape, so protocol code — and the cipher-choice ablation bench — is
    written once.  A ring hop re-encrypts a whole set under one key, so
    the pair works on batches; a single value is a batch of one. *)

open Numtheory

type keypair = {
  enc_many : Bignum.t list -> Bignum.t list;
      (** Encrypt a batch under this node's key.  Under Pohlig–Hellman
          this is {!Pohlig_hellman.encrypt_many}: ciphertexts identical
          to element-at-a-time encryption, with the exponent's plan
          state shared across the list.  [crypto.commutative.enc]
          advances by the batch length, so §3 cost counts do not
          depend on batching. *)
  dec_many : Bignum.t list -> Bignum.t list;
      (** Batch counterpart of [enc_many], counted on
          [crypto.commutative.dec]. *)
}
(** One node's matched key, as closures over scheme parameters. *)

type scheme = {
  name : string;
  fresh_keypair : unit -> keypair;
      (** Draw an independent key for one participant. *)
  encode : string -> Bignum.t;
      (** Shared deterministic payload embedding: equal payloads map to
          equal domain elements across all participants. *)
}

val pohlig_hellman : Numtheory.Prng.t -> Pohlig_hellman.params -> scheme

val xor_pad : Numtheory.Prng.t -> Xor_pad.params -> scheme
(** The paper's toy cipher.  Under it the ∩ₛ receiver can strip every
    layer off the other parties' sets ({!Xor_pad}; SECURITY.md
    limitation 2). *)
