open Numtheory

type durability = Strict | Degraded

type submit_outcome =
  | Committed of Glsn.t
  | Committed_degraded of Glsn.t * Net.Node_id.t list
  | Rejected of string

type t = {
  net : Net.Network.t;
  retry : Net.Retry.t;
  fragmentation : Fragmentation.t;
  stores : (Net.Node_id.t * Storage.t) list;
  allocator : Glsn.Allocator.t;
  ticket_authority : Ticket.Authority.t;
  accumulator : Crypto.Accumulator.params;
  rng : Prng.t;
  hint_keys : (Net.Node_id.t * string) list;
      (* per-target handoff keys: a parked fragment is sealed so only
         its destination node can open it *)
  mutable clock : int;
  mutable origins : Net.Node_id.t Glsn.Map.t;
  mutable quarantined_set : Net.Node_id.Set.t;
      (* nodes accused of Byzantine behavior and fenced from audit
         rounds until re-hosted on an honest replica *)
  mutable commit_hooks : (Glsn.t -> unit) list;
      (* fired after a placement commits (and again when a parked
         fragment of that glsn is later drained) — newest last *)
  mutable rollback_hooks : (Glsn.t -> unit) list;
}

let create ?(seed = 0) ?net ?glsn_start fragmentation =
  let rng = Prng.create ~seed in
  let net = match net with Some n -> n | None -> Net.Network.of_config (Net.Config.make ~seed ()) in
  let retry = Net.Retry.create ~seed net in
  let stores =
    List.map
      (fun node ->
        ( node,
          Storage.create
            ~supported:(Fragmentation.supported_by fragmentation node) ))
      (Fragmentation.nodes fragmentation)
  in
  let hint_master = Prng.bytes rng 32 in
  let hint_keys =
    List.map
      (fun node ->
        ( node,
          Crypto.Hkdf.derive ~ikm:hint_master
            ~info:("handoff:" ^ Net.Node_id.to_string node)
            ~length:32 ))
      (Fragmentation.nodes fragmentation)
  in
  {
    net;
    retry;
    fragmentation;
    stores;
    allocator = Glsn.Allocator.create ?start:glsn_start ();
    ticket_authority = Ticket.Authority.create ~key:(Prng.bytes rng 32);
    accumulator = Crypto.Accumulator.generate rng ~bits:128;
    rng;
    hint_keys;
    clock = 0;
    origins = Glsn.Map.empty;
    quarantined_set = Net.Node_id.Set.empty;
    commit_hooks = [];
    rollback_hooks = [];
  }

let on_commit t hook = t.commit_hooks <- t.commit_hooks @ [ hook ]
let on_rollback t hook = t.rollback_hooks <- t.rollback_hooks @ [ hook ]
let fire_commit t glsn = List.iter (fun hook -> hook glsn) t.commit_hooks
let fire_rollback t glsn = List.iter (fun hook -> hook glsn) t.rollback_hooks

let net t = t.net
let retry t = t.retry
let fragmentation t = t.fragmentation
let nodes t = List.map fst t.stores

let store_of t node =
  match List.find_opt (fun (n, _) -> Net.Node_id.equal n node) t.stores with
  | Some (_, store) -> store
  | None ->
    invalid_arg
      (Printf.sprintf "Cluster.store_of: %s is not a member of the cluster"
         (Net.Node_id.to_string node))

let quarantine t node =
  if not (Net.Node_id.Set.mem node t.quarantined_set) then begin
    t.quarantined_set <- Net.Node_id.Set.add node t.quarantined_set;
    Obs.Metrics.incr "cluster.quarantine"
  end

let lift_quarantine t node =
  t.quarantined_set <- Net.Node_id.Set.remove node t.quarantined_set

let is_quarantined t node = Net.Node_id.Set.mem node t.quarantined_set
let quarantined t = Net.Node_id.Set.elements t.quarantined_set

let stores t = List.map snd t.stores
let accumulator_params t = t.accumulator
let rng t = t.rng
let advance_time t seconds =
  t.clock <- t.clock + seconds;
  (* Wall-clock passage ages circuit-breaker cooldowns too. *)
  Net.Retry.tick t.retry (1000.0 *. float_of_int seconds)

let issue_ticket t ~id ~principal ~rights ~ttl =
  Ticket.Authority.issue t.ticket_authority ~id ~principal ~rights
    ~expires_at:(t.clock + ttl)

let verify_ticket t ticket =
  Ticket.Authority.verify t.ticket_authority ticket ~now:t.clock

let ticket_authorizes t ticket right =
  Ticket.Authority.authorizes t.ticket_authority ticket ~now:t.clock right

let fragment_size fragment =
  List.fold_left
    (fun acc (a, v) ->
      acc + String.length (Attribute.to_string a)
      + String.length (Value.to_wire v) + 2)
    8 fragment

let hint_key_of t node =
  snd (List.find (fun (n, _) -> Net.Node_id.equal n node) t.hint_keys)

let seal_hint t ~target ~glsn wire =
  Crypto.Aead.seal ~key:(hint_key_of t target)
    ~nonce:(Crypto.Chacha20.nonce_of_string (Glsn.to_string glsn))
    ~ad:(Glsn.to_string glsn) wire

let open_hint t ~target ~glsn blob =
  Crypto.Aead.open_ ~key:(hint_key_of t target)
    ~nonce:(Crypto.Chacha20.nonce_of_string (Glsn.to_string glsn))
    ~ad:(Glsn.to_string glsn) blob

(* Commit one fragment into its home store, with the legitimate
   own-column ledger observations. *)
let commit_fragment t ~node ~glsn ~fragment ~digest ~witness ~ticket_id =
  let store = store_of t node in
  Storage.store store ~glsn ~fragment;
  Storage.store_digest store ~glsn digest;
  Storage.store_witness store ~glsn witness;
  Access_control.grant (Storage.acl store) ~ticket_id glsn;
  (* The node legitimately observes its own columns. *)
  Smc.Proto_util.observe t.net ~node ~sensitivity:Net.Ledger.Plaintext
    ~tag:"store:fragment"
    (Net.Ledger.Batch (Log_record.cell_to_string, fragment));
  Smc.Proto_util.observe t.net ~node ~sensitivity:Net.Ledger.Metadata
    ~tag:"store:glsn" (Net.Ledger.Text (Glsn.to_string glsn))

(* First ring successor of [target] (a cluster node) that is up and
   reachable, walking once round the ring: it holds the parked hint. *)
let hint_holder_for t ~target =
  let ring = nodes t in
  let rec walk node =
    let candidate = Smc.Proto_util.ring_next ring node in
    if Net.Node_id.equal candidate target then None
    else if
      Net.Network.is_up t.net candidate && Net.Retry.reachable t.retry candidate
    then Some candidate
    else walk candidate
  in
  walk target

let submit_unobserved ~durability t ~ticket ~origin ~attributes =
  match Ticket.Authority.verify t.ticket_authority ticket ~now:t.clock with
  | Error reason -> Rejected ("ticket rejected: " ^ reason)
  | Ok () ->
    if not (Net.Node_id.equal ticket.Ticket.principal origin) then
      Rejected "ticket rejected: principal mismatch"
    else if
      not
        (Ticket.Authority.authorizes t.ticket_authority ticket ~now:t.clock
           Ticket.Write)
    then Rejected "ticket rejected: no write right"
    else begin
      let universe = Fragmentation.universe t.fragmentation in
      (* Cross atoms compare strings NUL-padded to a common width
         (Executor.embed), so a string may not hold NUL. *)
      let invalid (a, v) =
        let reject fmt = Some (Printf.sprintf fmt (Attribute.to_string a)) in
        match v with
        | _ when not (Attribute.Set.mem a universe) ->
          reject "no DLA node supports attribute %s"
        | Value.Str s when String.contains s '\000' ->
          reject "a string value of attribute %s holds NUL"
        | _ -> None
      in
      match List.find_map invalid attributes with
      | Some reason -> Rejected reason
      | None ->
        (* Stage: compute everything the placement needs before a single
           message moves or a single row is written, so a mid-placement
           failure can never leave a torn record. *)
        let glsn = Glsn.Allocator.next t.allocator in
        let record = Log_record.make ~glsn ~origin ~attributes in
        let fragments = Fragmentation.fragment t.fragmentation record in
        (* Digest over all fragments, deposited at every node (§4.1),
           plus each node's membership witness (ref [27]: the
           accumulation of the *other* nodes' fragments) so a node can
           later prove its fragment without a full circulation. *)
        let wires =
          List.map
            (fun (_, fragment) -> Log_record.fragment_wire ~glsn fragment)
            fragments
        in
        let digest = Crypto.Accumulator.accumulate_all t.accumulator wires in
        let witnesses = Crypto.Accumulator.witnesses t.accumulator wires in
        let staged =
          List.map2
            (fun (node, fragment) (_, witness) -> (node, fragment, witness))
            fragments witnesses
        in
        (* Deliver: attempt every fragment send (with retry/backoff)
           before committing anything. *)
        let delivered, failed =
          List.partition
            (fun (node, fragment, _) ->
              match
                Net.Retry.send t.retry ~src:origin ~dst:node
                  ~label:"log:fragment"
                  ~bytes:(fragment_size fragment + 16 (* digest share *))
              with
              | Net.Retry.Sent _ -> true
              | Net.Retry.Gave_up _ -> false)
            staged
        in
        let commit_delivered () =
          List.iter
            (fun (node, fragment, witness) ->
              commit_fragment t ~node ~glsn ~fragment ~digest ~witness
                ~ticket_id:ticket.Ticket.id)
            delivered
        in
        let finish outcome =
          t.origins <- Glsn.Map.add glsn origin t.origins;
          Net.Network.round ~label:"log" t.net;
          outcome
        in
        match (failed, durability) with
        | [], _ ->
          commit_delivered ();
          finish (Committed glsn)
        | _ :: _, Strict ->
          (* Nothing was committed: the staged placement is simply
             abandoned (the glsn stays burned but appears nowhere). *)
          Net.Network.round ~label:"log" t.net;
          Rejected
            (Printf.sprintf "placement failed at %s"
               (String.concat ","
                  (List.map
                     (fun (node, _, _) -> Net.Node_id.to_string node)
                     failed)))
        | _ :: _, Degraded -> (
          (* Park every undeliverable fragment on a live ring successor,
             sealed under the target's handoff key so the holder gains
             ciphertext only.  All-or-nothing: if any fragment cannot be
             parked either, reject the whole placement. *)
          let parked =
            List.map
              (fun (target, fragment, witness) ->
                match hint_holder_for t ~target with
                | None -> None
                | Some holder ->
                  let wire = Log_record.fragment_wire ~glsn fragment in
                  let blob = seal_hint t ~target ~glsn wire in
                  (match
                     Net.Retry.send t.retry ~src:origin ~dst:holder
                       ~label:"log:hint" ~bytes:(String.length blob + 16)
                   with
                  | Net.Retry.Gave_up _ -> None
                  | Net.Retry.Sent _ ->
                    Some (holder, target, blob, witness)))
              failed
          in
          if List.exists Option.is_none parked then begin
            Net.Network.round ~label:"log" t.net;
            Rejected
              (Printf.sprintf "placement failed at %s and no handoff successor"
                 (String.concat ","
                    (List.map
                       (fun (node, _, _) -> Net.Node_id.to_string node)
                       failed)))
          end
          else begin
            commit_delivered ();
            List.iter
              (function
                | None -> assert false
                | Some (holder, target, blob, witness) ->
                  Smc.Proto_util.observe t.net ~node:holder
                    ~sensitivity:Net.Ledger.Ciphertext ~tag:"park:hint"
                    (Net.Ledger.Text (Crypto.Sha256.digest_hex blob));
                  Storage.park_hint (store_of t holder)
                    {
                      Storage.hint_target = target;
                      hint_glsn = glsn;
                      hint_blob = blob;
                      hint_digest = digest;
                      hint_witness = witness;
                      hint_ticket = ticket.Ticket.id;
                    })
              parked;
            finish
              (Committed_degraded
                 ( glsn,
                   List.map (fun (node, _, _) -> node) failed
                   |> List.sort_uniq Net.Node_id.compare ))
          end)
    end

(* Every placement runs inside a span clocked on the network's virtual
   time, and lands in exactly one of three outcome counters — the same
   commit/degraded/rejected split the availability experiments plot. *)
let submit ?(durability = Degraded) t ~ticket ~origin ~attributes =
  Smc.Proto_util.span t.net "cluster.submit" (fun () ->
      let outcome = submit_unobserved ~durability t ~ticket ~origin ~attributes in
      (match outcome with
      | Committed glsn ->
        Obs.Metrics.incr "cluster.submit.committed";
        fire_commit t glsn
      | Committed_degraded (glsn, _) ->
        Obs.Metrics.incr "cluster.submit.degraded";
        fire_commit t glsn
      | Rejected _ -> Obs.Metrics.incr "cluster.submit.rejected");
      outcome)

let to_result = function
  | Committed glsn | Committed_degraded (glsn, _) -> Ok glsn
  | Rejected reason -> Error reason

let pending_hints t =
  List.concat_map
    (fun (holder, store) ->
      List.map
        (fun h -> (holder, h.Storage.hint_target, h.Storage.hint_glsn))
        (Storage.hints store))
    t.stores

let drain_hints t =
  Smc.Proto_util.span t.net "cluster.drain" (fun () ->
  let delivered = ref [] in
  List.iter
    (fun (holder, holder_store) ->
      List.iter
        (fun target ->
          if
            (not (Net.Node_id.equal holder target))
            && Net.Network.is_up t.net target
          then
            List.iter
              (fun hint ->
                let target = hint.Storage.hint_target in
                let glsn = hint.Storage.hint_glsn in
                match
                  Net.Retry.send t.retry ~src:holder ~dst:target
                    ~label:"log:hint-drain"
                    ~bytes:(String.length hint.Storage.hint_blob + 16)
                with
                | Net.Retry.Gave_up _ ->
                  (* Still unreachable: park it again. *)
                  Obs.Metrics.incr "cluster.drain.reparked";
                  Storage.park_hint holder_store hint
                | Net.Retry.Sent _ -> (
                  match open_hint t ~target ~glsn hint.Storage.hint_blob with
                  | None ->
                    Obs.Metrics.incr "cluster.drain.reparked";
                    Storage.park_hint holder_store hint
                  | Some wire ->
                    let glsn', fragment = Log_record.fragment_of_wire wire in
                    if Glsn.equal glsn glsn' then begin
                      commit_fragment t ~node:target ~glsn ~fragment
                        ~digest:hint.Storage.hint_digest
                        ~witness:hint.Storage.hint_witness
                        ~ticket_id:hint.Storage.hint_ticket;
                      Smc.Proto_util.observe t.net ~node:target
                        ~sensitivity:Net.Ledger.Metadata ~tag:"drain:hint"
                        (Net.Ledger.Text (Glsn.to_string glsn));
                      delivered := (target, glsn) :: !delivered
                    end
                    else begin
                      Obs.Metrics.incr "cluster.drain.reparked";
                      Storage.park_hint holder_store hint
                    end))
              (Storage.take_hints_for holder_store ~target))
        (List.map fst t.stores))
    t.stores;
  Net.Network.round ~label:"log" t.net;
  Obs.Metrics.incr ~by:(List.length !delivered) "cluster.drain.delivered";
  let delivered = List.rev !delivered in
  (* A drained fragment changes what the glsn's home nodes can answer:
     re-announce each affected glsn so incremental consumers re-apply
     their (idempotent, insert-only) deltas. *)
  List.iter (fire_commit t)
    (List.sort_uniq Glsn.compare (List.map snd delivered));
  delivered)

let record_of t glsn =
  let fragments =
    List.filter_map (fun (_, store) -> Storage.fragment_of store glsn) t.stores
  in
  match List.concat fragments with
  | [] -> None
  | attributes ->
    let origin =
      Option.value ~default:Net.Node_id.Auditor
        (Glsn.Map.find_opt glsn t.origins)
    in
    (* Only a tampered store holds one attribute on two nodes; such
       cells form no record ([Log_record.make] rejects the duplicate). *)
    (match Log_record.make ~glsn ~origin ~attributes with
    | record -> Some record
    | exception Invalid_argument _ -> None)

(* Undo every trace of a placement — committed rows, ACL grants, parked
   hints, origin bookkeeping.  Used by submit_transaction so a rejected
   later event does not leave earlier events stored. *)
let rollback t ~ticket_id glsn =
  Obs.Metrics.incr "cluster.rollback";
  List.iter
    (fun (_, store) ->
      ignore (Storage.remove store ~glsn);
      Access_control.revoke (Storage.acl store) ~ticket_id glsn;
      Storage.drop_hints store ~glsn)
    t.stores;
  t.origins <- Glsn.Map.remove glsn t.origins;
  fire_rollback t glsn

let submit_transaction t ~ticket ~origin ~tsn ~ttn ~events =
  let rec go acc degraded = function
    | [] ->
      let records = List.rev_map snd acc in
      Ok
        ( Log_record.Transaction.make ~tsn ~ttn ~records,
          List.sort_uniq Net.Node_id.compare degraded )
    | attributes :: rest -> (
      match submit t ~ticket ~origin ~attributes with
      | Committed glsn ->
        (* The submitted attributes are in hand: reassembling via
           record_of would under-report parked (degraded) fragments. *)
        go ((glsn, Log_record.make ~glsn ~origin ~attributes) :: acc) degraded
          rest
      | Committed_degraded (glsn, down) ->
        go
          ((glsn, Log_record.make ~glsn ~origin ~attributes) :: acc)
          (down @ degraded) rest
      | Rejected m ->
        (* Crash-safe: roll the earlier events of this transaction back
           so no prefix survives a torn transaction. *)
        List.iter
          (fun (glsn, _) -> rollback t ~ticket_id:ticket.Ticket.id glsn)
          acc;
        Error m)
  in
  go [] [] events

let all_glsns t =
  List.fold_left
    (fun acc (_, store) ->
      List.fold_left (fun acc g -> Glsn.Set.add g acc) acc (Storage.glsns store))
    Glsn.Set.empty t.stores
  |> Glsn.Set.elements

let record_count t = List.length (all_glsns t)

(* The record's deposited integrity digest: every holding node stores
   the same value (§4.1). *)
let digest_of t glsn =
  List.fold_left
    (fun acc (_, store) ->
      match acc with
      | Some _ -> acc
      | None -> Storage.digest_of store glsn)
    None t.stores

let integrity_digests t =
  List.filter_map (fun g -> Option.map (fun d -> (g, d)) (digest_of t g))
    (all_glsns t)
