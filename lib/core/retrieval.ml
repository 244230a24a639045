let authorize cluster ~ticket ~requester glsn =
  match Cluster.verify_ticket cluster ticket with
  | Error reason -> Error ("ticket rejected: " ^ reason)
  | Ok () ->
    if not (Net.Node_id.equal ticket.Ticket.principal requester) then
      Error "ticket rejected: principal mismatch"
    else if not (Cluster.ticket_authorizes cluster ticket Ticket.Read) then
      Error "ticket rejected: no read right"
    else begin
      (* Every node checks its own ACL copy; all must agree. *)
      let refused =
        List.filter
          (fun node ->
            let store = Cluster.store_of cluster node in
            not
              (Access_control.authorizes (Storage.acl store)
                 ~ticket_id:ticket.Ticket.id glsn))
          (Cluster.nodes cluster)
      in
      match refused with
      | [] -> Ok ()
      | node :: _ ->
        Error
          (Printf.sprintf "access denied: %s's ACL does not list %s under %s"
             (Net.Node_id.to_string node) (Glsn.to_string glsn)
             ticket.Ticket.id)
    end

let fragment_bytes fragment =
  List.fold_left
    (fun acc (a, v) ->
      acc + String.length (Attribute.to_string a)
      + String.length (Value.to_wire v) + 2)
    8 fragment

let deliver cluster ~requester ~node fragment =
  let net = Cluster.net cluster in
  Net.Network.send_exn net ~src:requester ~dst:node ~label:"retrieval:request"
    ~bytes:8;
  Net.Network.send_exn net ~src:node ~dst:requester ~label:"retrieval:fragment"
    ~bytes:(fragment_bytes fragment);
  Smc.Proto_util.observe net ~node:requester ~sensitivity:Net.Ledger.Plaintext
    ~tag:"retrieval:fragment"
    (Net.Ledger.Batch (Log_record.cell_to_string, fragment))

let fetch_record cluster ~ticket ~requester glsn =
  match authorize cluster ~ticket ~requester glsn with
  | Error _ as e -> e
  | Ok () ->
    let fragments =
      List.filter_map
        (fun node ->
          let store = Cluster.store_of cluster node in
          match Storage.fragment_of store glsn with
          | None -> None
          | Some fragment ->
            deliver cluster ~requester ~node fragment;
            Some fragment)
        (Cluster.nodes cluster)
    in
    Net.Network.round (Cluster.net cluster);
    (match List.concat fragments with
    | [] -> Error "no fragments stored under this glsn"
    | attributes -> (
      (* Only a tampered store holds one attribute on two nodes; such
         cells form no record ([Log_record.make] rejects the duplicate). *)
      match Log_record.make ~glsn ~origin:requester ~attributes with
      | record -> Ok record
      | exception Invalid_argument _ ->
        Error
          (Printf.sprintf "fragments stored under %s do not form one record"
             (Glsn.to_string glsn))))

let fetch_projection cluster ~ticket ~requester ~attrs glsn =
  match authorize cluster ~ticket ~requester glsn with
  | Error _ as e -> e
  | Ok () ->
    let fragmentation = Cluster.fragmentation cluster in
    let rec homes acc = function
      | [] -> Ok (List.rev acc)
      | attr :: rest -> (
        match Fragmentation.home_of fragmentation attr with
        | Some node -> homes ((attr, node) :: acc) rest
        | None ->
          Error
            (Printf.sprintf "no DLA node supports attribute %s"
               (Attribute.to_string attr)))
    in
    (match homes [] attrs with
    | Error _ as e -> e
    | Ok homed ->
      let values =
        List.filter_map
          (fun (attr, node) ->
            let store = Cluster.store_of cluster node in
            match Storage.fragment_of store glsn with
            | None -> None
            | Some fragment -> (
              match List.assoc_opt attr fragment with
              | None -> None
              | Some v ->
                deliver cluster ~requester ~node [ (attr, v) ];
                Some (attr, v)))
          homed
      in
      Net.Network.round (Cluster.net cluster);
      Ok values)
