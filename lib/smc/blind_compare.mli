(** The relaxed blind-TTP comparison (paper §3.2, §3.3), the one place
    a blinding map is drawn: the holders {!agree} on a secret map, each
    {!submit}s its blinded values, and a blind TTP compares them.
    Figure 3's cross atoms {!join} two blinded columns; =ₛ and the
    pairwise comparison run the one-value {!pair}; Rankₛ ranks one
    value per party. *)

open Numtheory

type map =
  | Order  (** §3.3's increasing map [y ↦ scale·y + offset], 64-bit *)
  | Equality of Bignum.t
      (** §3.2's affine bijection [y ↦ (a·y + b) mod p], [p] prime;
          values lie in [\[0, p)] *)

type blinding

val agree :
  Net.Network.t -> Prng.t -> protocol:string -> Net.Node_id.t list -> map ->
  blinding
(** One ["<protocol>:negotiate"] message from each holder to the next
    (16 bytes for [Order], twice [p]'s wire size for [Equality p]) and
    a round labelled [protocol]; then the map is drawn. *)

val blind : blinding -> Bignum.t -> Bignum.t
(** Bumps [crypto.blind.monotone] or [crypto.blind.affine]. *)

val submit :
  Net.Network.t -> label:string -> key_bytes:int -> ttp:Net.Node_id.t ->
  Net.Node_id.t -> ('k * string * Bignum.t) list -> unit
(** One holder's (key, comparison class, image) rows as one [label]
    message to the TTP, of each image's wire size plus [key_bytes] per
    row; the TTP observes the images [Blinded], tagged [label]. *)

val join :
  (int -> bool) -> ('k -> 'k -> int) -> ('k * string * Bignum.t) list ->
  ('k * string * Bignum.t) list -> 'k list
(** [join holds compare_key left right]: the TTP's one-pass merge of
    two key-ascending submissions, keeping, key-descending, each key on
    both sides whose rows share a class and whose images'
    [Bignum.compare] [holds]. *)

val pair :
  Net.Network.t -> Prng.t -> protocol:string -> ttp:Net.Node_id.t -> map ->
  left:Net.Node_id.t * Bignum.t -> right:Net.Node_id.t * Bignum.t -> int
(** {!agree}, one ["<protocol>:submit"] per holder and a round, then the
    TTP's [Bignum.compare] of the images to both holders as a 1-byte
    ["<protocol>:verdict"] and a round: 5 messages, 3 rounds. *)
