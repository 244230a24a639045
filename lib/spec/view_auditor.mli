(** View-simulatability auditor (paper Definition 1).

    Relaxed SMC permits each participant to learn the final answer and
    "secondary forms" of foreign data (ciphertexts, blinded images,
    shares, sizes) — and nothing else.  Given a per-protocol
    declaration of who holds which secrets and which final outputs each
    principal is authorized to learn, this module checks a recorded
    {!Transcript} event by event and reports every observation that a
    simulator armed with only the node's own inputs and authorized
    outputs could not have produced.

    The verbatim-value check ([Foreign_secret]) compares observation
    strings against declared secrets at {e every} sensitivity, so a
    leak that was mislabeled as [Blinded] or [Ciphertext] is still
    caught.  The flip side is that honestly-transformed values could in
    principle collide with a secret's string form; over the protocols'
    moduli (≥ 2⁶¹) the collision probability is negligible and the
    differential harness's inputs keep it that way. *)

type role =
  | Participant  (** holds inputs; may see its own secrets in the clear *)
  | Blind_ttp
      (** blind coordinator / external receiver: must never observe any
          plaintext, and only authorized aggregates *)

type spec = {
  node : Net.Node_id.t;
  role : role;
  secrets : string list;
      (** the node's own private inputs, in the exact string form the
          protocol records them *)
  allowed_outputs : string list;
      (** final answers this node is authorized to learn (Definition
          1's f(a₁…aₙ)) *)
}

type reason =
  | Unknown_observer  (** an event for a node no spec covers *)
  | Foreign_secret  (** another node's secret, verbatim, any sensitivity *)
  | Plaintext_at_ttp  (** any plaintext in a blind role's view *)
  | Unauthorized_plaintext
      (** plaintext outside the node's own secrets and authorized
          outputs *)
  | Unauthorized_aggregate
      (** a final-answer observation the spec does not authorize *)
  | Verifier_leak
      (** a ["byz:"]-tagged verification event that is not a [Metadata]
          observation of a 64-hex SHA-256 commitment — the Byzantine
          defenses themselves must leak nothing *)
  | Checkpoint_leak
      (** a ["ckpt:"]-tagged checkpoint publication that is not a
          [Metadata] observation of a 64-hex chain digest — the
          continuous engine's tamper evidence must itself stay
          metadata-only *)

type violation = { event : Transcript.event; reason : reason }

val reason_to_string : reason -> string
val violation_to_string : violation -> string

val audit : specs:spec list -> Transcript.t -> violation list
(** All violations in transcript order; [[]] means every recorded view
    is simulatable from own inputs + authorized outputs. *)
