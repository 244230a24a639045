open Numtheory

type t = {
  cluster : Cluster.t;
  k : int;
  p : Bignum.t;  (* share field, far above any reachable total *)
  mutable shares : (Net.Node_id.t * Crypto.Shamir.share) list Glsn.Map.t;
  mutable kind : string option;  (* comparison class of recorded values *)
}

let field_prime = Bignum.of_string "2305843009213693951" (* 2^61 - 1 *)

let create cluster ~attr ~k =
  let nodes = Cluster.nodes cluster in
  if k < 1 || k > List.length nodes then
    invalid_arg "Shared_column.create: k outside [1, n]";
  if
    Attribute.Set.mem attr
      (Fragmentation.universe (Cluster.fragmentation cluster))
  then
    invalid_arg
      "Shared_column.create: attribute already homed at a DLA node";
  { cluster; k; p = field_prime; shares = Glsn.Map.empty; kind = None }

let int_of_value = function
  | Value.Int v | Value.Money v | Value.Time v ->
    if v < 0 then
      invalid_arg "Shared_column.record: negative values unsupported"
    else v
  | Value.Str _ -> invalid_arg "Shared_column.record: strings cannot be shared"

let record t ?(dealer = Net.Node_id.User 0) ~glsn value =
  if Glsn.Map.mem glsn t.shares then
    invalid_arg "Shared_column.record: glsn already recorded";
  let v = int_of_value value in
  (match t.kind with
  | None -> t.kind <- Some (Value.comparison_class value)
  | Some kind ->
    if not (String.equal kind (Value.comparison_class value)) then
      invalid_arg "Shared_column.record: mixed value kinds");
  let nodes = Cluster.nodes t.cluster in
  let n = List.length nodes in
  let dealt =
    Crypto.Shamir.split (Cluster.rng t.cluster) ~p:t.p ~k:t.k
      ~xs:(Crypto.Shamir.default_xs ~n)
      ~secret:(Bignum.of_int v)
  in
  let net = Cluster.net t.cluster in
  Smc.Proto_util.observe net ~node:dealer ~sensitivity:Net.Ledger.Plaintext
    ~tag:"shared-column:own-value" (Net.Ledger.Text (Value.to_string value));
  let paired = List.combine nodes dealt in
  List.iter
    (fun (node, (share : Crypto.Shamir.share)) ->
      Net.Network.send_exn net ~src:dealer ~dst:node
        ~label:"shared-column:deal"
        ~bytes:(Smc.Proto_util.bignum_wire_size share.Crypto.Shamir.y);
      Smc.Proto_util.observe net ~node ~sensitivity:Net.Ledger.Share
        ~tag:"shared-column:deal"
        (Net.Ledger.Text (Bignum.to_string share.Crypto.Shamir.y)))
    paired;
  Net.Network.round net;
  t.shares <- Glsn.Map.add glsn paired t.shares

let value_of_total t total =
  match t.kind with
  | Some "money" -> Value.Money total
  | Some "num" | None -> Value.Int total
  | Some _ -> Value.Int total

let secret_total t ?over ~auditor () =
  let selected =
    match over with
    | Some glsns -> glsns
    | None -> List.map fst (Glsn.Map.bindings t.shares)
  in
  let nodes = Cluster.nodes t.cluster in
  let net = Cluster.net t.cluster in
  (* Each node sums its shares over the selection — a share of the
     total, by linearity. *)
  let aggregates =
    List.map
      (fun node ->
        let shares =
          List.filter_map
            (fun glsn ->
              match Glsn.Map.find_opt glsn t.shares with
              | None -> None
              | Some per_node ->
                List.find_map
                  (fun (n, s) ->
                    if Net.Node_id.equal n node then Some s else None)
                  per_node)
            selected
        in
        match shares with
        | [] -> None
        | first :: rest ->
          Some
            ( node,
              List.fold_left (Crypto.Shamir.add_shares ~p:t.p) first rest ))
      nodes
    |> List.filter_map Fun.id
  in
  if aggregates = [] then value_of_total t 0
  else begin
    (* k aggregate shares travel to the auditor for reconstruction. *)
    let chosen = List.filteri (fun i _ -> i < t.k) aggregates in
    List.iter
      (fun (node, (share : Crypto.Shamir.share)) ->
        Net.Network.send_exn net ~src:node ~dst:auditor
          ~label:"shared-column:aggregate"
          ~bytes:(Smc.Proto_util.bignum_wire_size share.Crypto.Shamir.y);
        Smc.Proto_util.observe net ~node:auditor
          ~sensitivity:Net.Ledger.Share ~tag:"shared-column:aggregate"
          (Net.Ledger.Text (Bignum.to_string share.Crypto.Shamir.y)))
      chosen;
    Net.Network.round net;
    let total =
      Crypto.Shamir.reconstruct ~p:t.p (List.map snd chosen)
    in
    let total =
      match Bignum.to_int_opt total with
      | Some v -> v
      | None -> invalid_arg "Shared_column.secret_total: overflow"
    in
    let result = value_of_total t total in
    Smc.Proto_util.observe net ~node:auditor ~sensitivity:Net.Ledger.Aggregate
      ~tag:"shared-column:total" (Net.Ledger.Text (Value.to_string result));
    result
  end

let node_knows_nothing t cluster glsn =
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  match Glsn.Map.find_opt glsn t.shares with
  | None -> true
  | Some per_node ->
    (* No node saw any plaintext rendering of the secret: we check that
       the secret value string was never observed as Plaintext anywhere. *)
    List.for_all
      (fun (node, _) ->
        List.for_all
          (fun (sensitivity, tag, _) ->
            not
              (sensitivity = Net.Ledger.Plaintext
              && String.equal tag "shared-column:deal"))
          (Net.Ledger.observations ledger ~node))
      per_node
