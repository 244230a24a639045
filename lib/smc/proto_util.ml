open Numtheory

let bignum_wire_size v = (Bignum.num_bits v + 7) / 8

let ring_next ring node =
  let rec go = function
    | [] -> invalid_arg "Proto_util.ring_next: node not in ring"
    | [ last ] ->
      if Net.Node_id.equal last node then List.hd ring
      else invalid_arg "Proto_util.ring_next: node not in ring"
    | x :: (y :: _ as rest) ->
      if Net.Node_id.equal x node then y else go rest
  in
  if ring = [] then invalid_arg "Proto_util.ring_next: empty ring" else go ring

let shuffle rng items =
  let arr = Array.of_list items in
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* One protocol phase as an Obs span, clocked on [net]'s virtual time.
   Every protocol entry point re-binds the global trace clock, which is
   sound because the simulated protocols run synchronously to
   completion on one network at a time. *)
let span net name f =
  Obs.Trace.set_clock (fun () -> Net.Network.virtual_time_ms net);
  Obs.Trace.with_span name f

(* Round submission: every protocol's synchronization points go through
   here rather than calling [Network.round] directly.  The reactor farms
   modexp batches to an ambient domain pool; fencing the pool before
   virtual time advances guarantees no compute outlives the round that
   scheduled it, so a round barrier means the same thing under a
   width-4 pool as it does inline. *)
let round ?label net =
  Numtheory.Domain_pool.(fence (current ()));
  Net.Network.round ?label net

type wire_event = {
  node : Net.Node_id.t;
  sensitivity : Net.Ledger.sensitivity;
  tag : string;
  value : string;
  phase : string list;
}

let transcript_hook : (wire_event -> unit) option ref = ref None

let with_transcript_hook hook f =
  let previous = !transcript_hook in
  transcript_hook := Some hook;
  Fun.protect ~finally:(fun () -> transcript_hook := previous) f

let observe net ~node ~sensitivity ~tag value =
  Net.Ledger.record (Net.Network.ledger net) ~node ~sensitivity ~tag value;
  match !transcript_hook with
  | None -> ()
  | Some hook ->
    hook { node; sensitivity; tag; value; phase = Obs.Trace.current_path () }

(* Byzantine layer: the payload [dst] actually receives, after any
   installed adversary has tampered with it, cross-checked by any
   installed round guard.  Both hooks default to absent, in which case
   this is the identity and costs nothing — the honest path stays
   byte-identical.  The guard's commitment exchange is charged to the
   byz.verify.* metrics, never to the network counters (the §3
   cost-model totals are part of the paper's contract). *)
let deliver net ~src ~dst ~label values =
  let wire =
    match Net.Adversary.current () with
    | None -> values
    | Some adv -> Net.Adversary.tamper adv ~src ~dst ~label values
  in
  (match Round_guard.current () with
  | None -> ()
  | Some guard ->
    let commitment =
      Round_guard.observe_pass guard ~src ~dst ~label ~claimed:values
        ~received:wire
    in
    observe net ~node:dst ~sensitivity:Net.Ledger.Metadata
      ~tag:("byz:commit:" ^ label) commitment);
  wire

let deliver_share net ~src ~dst ~label y =
  match deliver net ~src ~dst ~label [ y ] with
  | [ y' ] -> y'
  | _ ->
    (* a dropped share is an unrecoverable column hole; surface it as a
       partition so callers keep their existing failure handling *)
    raise (Net.Network.Partitioned { src; dst; reason = "share dropped" })

let send_bignums net ~src ~dst ~label values =
  let wire = deliver net ~src ~dst ~label values in
  let bytes = List.fold_left (fun acc v -> acc + bignum_wire_size v) 0 wire in
  Net.Network.send_exn net ~src ~dst ~label ~bytes;
  List.iter
    (fun v ->
      observe net ~node:dst ~sensitivity:Net.Ledger.Ciphertext ~tag:label
        (Bignum.to_hex v))
    wire;
  wire

let send_residents net ~(scheme : Crypto.Commutative.scheme) ~src ~dst ~label
    residents =
  (* One ring hop of Montgomery-resident ciphertexts.  What goes on the
     wire — bytes accounted, ledger observations, adversary tampering,
     round-guard commitments — is exactly the canonical views, so the
     transcript is byte-identical to [send_bignums] on them.  Only the
     receiver's bookkeeping differs: an untampered delivery keeps each
     chained residue ([resync] compares views for free); tampering or
     drops re-enter the domain from the delivered payload, exactly as a
     real receiver must. *)
  let views = List.map scheme.view residents in
  let wire = deliver net ~src ~dst ~label views in
  let bytes = List.fold_left (fun acc v -> acc + bignum_wire_size v) 0 wire in
  Net.Network.send_exn net ~src ~dst ~label ~bytes;
  List.iter
    (fun v ->
      observe net ~node:dst ~sensitivity:Net.Ledger.Ciphertext ~tag:label
        (Bignum.to_hex v))
    wire;
  if List.length wire = List.length residents then
    List.map2 scheme.resync residents wire
  else scheme.enter_many wire
