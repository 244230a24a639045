open Numtheory

type keypair = {
  enc_many : Bignum.t list -> Bignum.t list;
  dec_many : Bignum.t list -> Bignum.t list;
}

type scheme = {
  name : string;
  fresh_keypair : unit -> keypair;
  encode : string -> Bignum.t;
}

(* Every keypair counts its layer operations scheme-agnostically, so
   the §3 set-protocol cost formulas (n²·m encryptions for ∩ₛ, plus
   n·u decryptions for ∪ₛ) are assertable whatever cipher backs the
   run.  A batch counts one operation per element, so the counters are
   invariant under batching. *)
let counted { enc_many; dec_many } =
  {
    enc_many =
      (fun xs ->
        Obs.Metrics.incr ~by:(List.length xs) "crypto.commutative.enc";
        enc_many xs);
    dec_many =
      (fun xs ->
        Obs.Metrics.incr ~by:(List.length xs) "crypto.commutative.dec";
        dec_many xs);
  }

let pohlig_hellman rng params =
  {
    name = "pohlig-hellman";
    fresh_keypair =
      (fun () ->
        let key = Pohlig_hellman.generate_key rng params in
        counted
          {
            enc_many = Pohlig_hellman.encrypt_many params key;
            dec_many = Pohlig_hellman.decrypt_many params key;
          });
    encode = Pohlig_hellman.encode params;
  }

let xor_pad rng params =
  {
    name = "xor-pad";
    fresh_keypair =
      (fun () ->
        let key = Xor_pad.generate_key rng params in
        counted
          {
            enc_many = List.map (Xor_pad.encrypt params key);
            dec_many = List.map (Xor_pad.decrypt params key);
          });
    encode = Xor_pad.encode params;
  }
