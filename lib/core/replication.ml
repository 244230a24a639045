open Numtheory

type t = {
  degree : int;
  keys : (Net.Node_id.t * string) list;  (* per-owner AEAD keys *)
}

(* ChaCha20-Poly1305 with the glsn as associated data: a holder cannot
   corrupt the blob undetected nor replay it under a different record,
   and the nonce is unique because glsn's are (one blob per (owner,
   glsn)). *)
let seal key ~glsn wire =
  Crypto.Aead.seal ~key
    ~nonce:(Crypto.Chacha20.nonce_of_string glsn)
    ~ad:glsn wire

let open_blob key ~glsn blob =
  Crypto.Aead.open_ ~key
    ~nonce:(Crypto.Chacha20.nonce_of_string glsn)
    ~ad:glsn blob

let setup cluster ~degree =
  let nodes = Cluster.nodes cluster in
  if degree < 1 || degree >= List.length nodes then
    invalid_arg "Replication.setup: degree outside [1, nodes)";
  let rng = Cluster.rng cluster in
  let master = Prng.bytes rng 32 in
  let keys_for node =
    Crypto.Hkdf.derive ~ikm:master
      ~info:("replica:" ^ Net.Node_id.to_string node)
      ~length:32
  in
  { degree; keys = List.map (fun node -> (node, keys_for node)) nodes }

let key_of t node =
  snd (List.find (fun (n, _) -> Net.Node_id.equal n node) t.keys)

let successors ring node count =
  if not (List.exists (Net.Node_id.equal node) ring) then
    invalid_arg
      (Printf.sprintf "Replication.successors: %s is not a ring member"
         (Net.Node_id.to_string node));
  let rec walk node k =
    if k = 0 then []
    else
      let next = Smc.Proto_util.ring_next ring node in
      next :: walk next (k - 1)
  in
  walk node count

(* Deliver one accounting message; with a retry layer, loss is retried
   and a persistent failure reported instead of raised. *)
let deliver ?retry net ~src ~dst ~label ~bytes =
  match retry with
  | None ->
    Net.Network.send_exn net ~src ~dst ~label ~bytes;
    true
  | Some retry -> (
    match Net.Retry.send retry ~src ~dst ~label ~bytes with
    | Net.Retry.Sent _ -> true
    | Net.Retry.Gave_up _ -> false)

let replicate_fragment ?retry t cluster ~owner ~glsn fragment =
  let net = Cluster.net cluster in
  let wire = Log_record.fragment_wire ~glsn fragment in
  let blob = seal (key_of t owner) ~glsn:(Glsn.to_string glsn) wire in
  List.fold_left
    (fun placed holder ->
      if
        deliver ?retry net ~src:owner ~dst:holder ~label:"replicate:blob"
          ~bytes:(String.length blob)
      then begin
        Smc.Proto_util.observe net ~node:holder
          ~sensitivity:Net.Ledger.Ciphertext ~tag:"replicate:blob"
          (Net.Ledger.Text (Crypto.Sha256.digest_hex blob));
        Storage.store_replica
          (Cluster.store_of cluster holder)
          ~owner ~glsn ~blob;
        placed + 1
      end
      else placed)
    0
    (successors (Cluster.nodes cluster) owner t.degree)

let replicate_all ?retry t cluster =
  let placed = ref 0 in
  List.iter
    (fun owner ->
      let store = Cluster.store_of cluster owner in
      List.iter
        (fun glsn ->
          match Storage.fragment_of store glsn with
          | None -> ()
          | Some fragment ->
            placed :=
              !placed + replicate_fragment ?retry t cluster ~owner ~glsn fragment)
        (Storage.glsns store))
    (Cluster.nodes cluster);
  Net.Network.round (Cluster.net cluster);
  !placed

let repair_owner ?retry t cluster ~all_glsns owner =
  let net = Cluster.net cluster in
  let store = Cluster.store_of cluster owner in
  let repaired = ref [] in
  List.iter
    (fun glsn ->
      if Storage.fragment_of store glsn = None then begin
        (* Ask each successor in turn for the blob. *)
        let holders = successors (Cluster.nodes cluster) owner t.degree in
        let blob =
          List.find_map
            (fun holder ->
              match
                Storage.replica_of (Cluster.store_of cluster holder) ~owner glsn
              with
              | None -> None
              | Some blob ->
                if
                  deliver ?retry net ~src:owner ~dst:holder
                    ~label:"repair:request" ~bytes:8
                  && deliver ?retry net ~src:holder ~dst:owner
                       ~label:"repair:blob" ~bytes:(String.length blob)
                then Some blob
                else None)
            holders
        in
        match blob with
        | None -> ()
        | Some blob -> (
          match open_blob (key_of t owner) ~glsn:(Glsn.to_string glsn) blob with
          | None -> () (* wrong key or corrupt: MAC rejects it *)
          | Some wire -> (
            match Log_record.fragment_of_wire wire with
            | glsn', fragment when Glsn.equal glsn glsn' ->
              Storage.store store ~glsn ~fragment;
              repaired := (owner, glsn) :: !repaired
            | _ -> ()
            | exception Invalid_argument _ -> ()))
      end)
    all_glsns;
  List.rev !repaired

let repair_node ?retry t cluster ~node =
  let repaired =
    repair_owner ?retry t cluster ~all_glsns:(Cluster.all_glsns cluster) node
  in
  Net.Network.round (Cluster.net cluster);
  repaired

let repair ?retry t cluster =
  let all_glsns = Cluster.all_glsns cluster in
  let repaired =
    List.concat_map
      (fun owner -> repair_owner ?retry t cluster ~all_glsns owner)
      (Cluster.nodes cluster)
  in
  Net.Network.round (Cluster.net cluster);
  repaired
