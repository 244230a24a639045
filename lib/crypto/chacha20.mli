(** ChaCha20 stream cipher (RFC 8439), pure OCaml.

    Symmetric encryption for data at rest in the simulation — replica
    blobs are ChaCha20-encrypted under the owner's key with a
    glsn-derived nonce, so replica holders store ciphertext only.
    Validated against the RFC 8439 test vectors in the test suite. *)

val block : key:string -> nonce:string -> counter:int -> string
(** One 64-byte keystream block.
    @raise Invalid_argument on wrong key/nonce sizes or a negative
    counter. *)

val encrypt : key:string -> nonce:string -> ?counter:int -> string -> string
(** XOR the keystream (starting at [counter], default 1 per the RFC's
    AEAD convention) into the data.  Self-inverse: decryption is the
    same call.  Never reuse a (key, nonce) pair for different data. *)

val nonce_of_string : string -> string
(** Derive a deterministic 12-byte nonce from a context string (e.g. a
    glsn) by hashing — convenient when contexts are unique by
    construction. *)
