type checkpoint = {
  index : int;
  commits : int;
  prev : string;
  accumulator : string;
  delta_hash : string;
  digest : string;
}

let genesis = String.make 64 '0'

(* A well-formed digest: 64 lowercase hex chars.  The spec layer uses
   the same shape test for published checkpoint events. *)
let is_hex64 s =
  String.length s = 64
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

(* Fixed-arity, '|'-delimited preimage: every field is either an int or
   64 hex chars, so the encoding is trivially injective. *)
let preimage ~index ~commits ~prev ~accumulator ~delta_hash =
  Printf.sprintf "ckpt|%d|%d|%s|%s|%s" index commits prev accumulator
    delta_hash

let recompute_digest cp =
  Crypto.Sha256.digest_hex
    (preimage ~index:cp.index ~commits:cp.commits ~prev:cp.prev
       ~accumulator:cp.accumulator ~delta_hash:cp.delta_hash)

let make ~index ~commits ~prev ~accumulator ~delta_hash =
  let cp = { index; commits; prev; accumulator; delta_hash; digest = "" } in
  { cp with digest = recompute_digest cp }

type chain = { mutable rev : checkpoint list (* newest first *) }

let create () = { rev = [] }
let checkpoints chain = List.rev chain.rev
let head chain = match chain.rev with [] -> None | cp :: _ -> Some cp.digest

let append chain ~commits ~accumulator ~delta_hash =
  if not (is_hex64 accumulator && is_hex64 delta_hash) then
    invalid_arg "Continuous_checkpoint.append: digests must be 64 hex chars";
  let index = List.length chain.rev in
  let prev = match chain.rev with [] -> genesis | cp :: _ -> cp.digest in
  let cp = make ~index ~commits ~prev ~accumulator ~delta_hash in
  chain.rev <- cp :: chain.rev;
  cp

type tamper =
  | Bad_genesis of { found_prev : string }
  | Bad_index of { position : int; found : int }
  | Bad_digest of { index : int }
  | Broken_link of { index : int; expected_prev : string; found_prev : string }
  | Head_mismatch of { expected : string; found : string option }

let tamper_to_string = function
  | Bad_genesis { found_prev } ->
    Printf.sprintf "checkpoint 0 does not start from the genesis value (prev=%s)"
      found_prev
  | Bad_index { position; found } ->
    Printf.sprintf
      "checkpoint at position %d carries index %d (drop or reorder)" position
      found
  | Bad_digest { index } ->
    Printf.sprintf "checkpoint %d digest does not match its fields" index
  | Broken_link { index; expected_prev; found_prev } ->
    Printf.sprintf "checkpoint %d links to %s, expected %s" index
      (String.sub found_prev 0 8) (String.sub expected_prev 0 8)
  | Head_mismatch { expected; found } ->
    Printf.sprintf "chain head is %s, trusted anchor is %s (truncation or forged tail)"
      (match found with None -> "absent" | Some d -> String.sub d 0 8)
      (String.sub expected 0 8)

let verify_chain ?head cps =
  let finish last_digest =
    match head with
    | None -> Ok ()
    | Some expected ->
      if
        match last_digest with
        | Some d -> String.equal d expected
        | None -> false
      then Ok ()
      else Error (Head_mismatch { expected; found = last_digest })
  in
  let rec walk position prev_digest = function
    | [] -> finish prev_digest
    | cp :: rest ->
      if cp.index <> position then
        Error (Bad_index { position; found = cp.index })
      else if not (String.equal (recompute_digest cp) cp.digest) then
        Error (Bad_digest { index = cp.index })
      else begin
        let expected_prev =
          match prev_digest with None -> genesis | Some d -> d
        in
        if not (String.equal cp.prev expected_prev) then
          if position = 0 then Error (Bad_genesis { found_prev = cp.prev })
          else
            Error
              (Broken_link
                 { index = cp.index; expected_prev; found_prev = cp.prev })
        else walk (position + 1) (Some cp.digest) rest
      end
  in
  walk 0 None cps
