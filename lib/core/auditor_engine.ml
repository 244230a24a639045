type audit = {
  criteria : Query.t;
  matching : Glsn.t list;
  count : int;
  c_auditing : float;
  coverage : Executor.coverage;
  messages : int;
  bytes : int;
  rounds : int;
}

type request =
  | Criteria of Query.t
  | Text of string

let criteria_of_request request =
  match request with
  | Criteria criteria -> Ok criteria
  | Text input -> (
    match Query.parse input with
    | Ok criteria -> Ok criteria
    | Error message -> Error (Audit_error.Parse_error { input; message }))

let run cluster ?delivery ~auditor request =
  match criteria_of_request request with
  | Error _ as e -> e
  | Ok criteria -> (
    let net = Cluster.net cluster in
    let before = Net.Network.stats net in
    match Executor.run cluster ?delivery ~auditor criteria with
    | Error _ as e -> e
    | Ok report ->
      let after = Net.Network.stats net in
      Ok
        {
          criteria;
          matching = report.Executor.matching;
          count = report.Executor.count;
          c_auditing = report.Executor.c_auditing;
          coverage = report.Executor.coverage;
          messages = after.Net.Network.messages - before.Net.Network.messages;
          bytes = after.Net.Network.bytes - before.Net.Network.bytes;
          rounds = after.Net.Network.rounds - before.Net.Network.rounds;
        })

let mean_c_store cluster audit =
  let fragmentation = Cluster.fragmentation cluster in
  let sum, n =
    List.fold_left
      (fun ((sum, n) as acc) glsn ->
        (* on-read: reassembling a match is a reporting cost, paid only
           by a caller that prints the score, never by the audit. *)
        match Cluster.record_of cluster glsn with
        | Some record ->
          (sum +. Confidentiality.c_store fragmentation record, n + 1)
        | None -> acc)
      (0.0, 0) audit.matching
  in
  if n = 0 then 0.0 else sum /. float_of_int n

let secret_sum cluster ~auditor ~attr input =
  match Query.parse input with
  | Error message -> Error (Audit_error.Parse_error { input; message })
  | Ok criteria -> (
    match Fragmentation.home_of (Cluster.fragmentation cluster) attr with
    | None ->
      Error
        (Audit_error.Aggregate_error
           { attr = Attribute.to_string attr; fault = Audit_error.No_home })
    | Some home -> (
      (* The matching glsn set is metadata; deliver it to the attribute's
         home node, which sums its own column and releases the total. *)
      match Executor.run cluster ~auditor:home criteria with
      | Error _ as e -> e
      | Ok report ->
        let matching = Glsn.Set.of_list report.Executor.matching in
        let values =
          List.rev
            (Storage.fold_column (Cluster.store_of cluster home) attr
               (fun acc glsn v ->
                 if Glsn.Set.mem glsn matching then v :: acc else acc)
               [])
        in
        let aggregate_error fault =
          Error
            (Audit_error.Aggregate_error
               { attr = Attribute.to_string attr; fault })
        in
        let rec total acc = function
          | [] -> Ok acc
          | v :: rest -> (
            match (acc, v) with
            | Value.Int a, Value.Int b -> total (Value.Int (a + b)) rest
            | Value.Money a, Value.Money b -> total (Value.Money (a + b)) rest
            | Value.Time a, Value.Time b -> total (Value.Time (a + b)) rest
            | _, Value.Str _ -> aggregate_error Audit_error.String_column
            | _, _ -> aggregate_error Audit_error.Mixed_kinds)
        in
        let zero_like =
          match values with
          | [] -> Value.Int 0
          | Value.Int _ :: _ -> Value.Int 0
          | Value.Money _ :: _ -> Value.Money 0
          | Value.Time _ :: _ -> Value.Time 0
          | Value.Str _ :: _ -> Value.Int 0
        in
        (match total zero_like values with
        | Error _ as e -> e
        | Ok sum ->
          let net = Cluster.net cluster in
          Net.Network.send_exn net ~src:home ~dst:auditor
            ~label:"query:secret-sum" ~bytes:16;
          Smc.Proto_util.observe net ~node:auditor
            ~sensitivity:Net.Ledger.Aggregate ~tag:"query:secret-sum"
            (Net.Ledger.Text (Value.to_string sum));
          Net.Network.round net;
          Ok sum)))

let secret_mean cluster ~auditor ~attr input =
  match secret_sum cluster ~auditor ~attr input with
  | Error _ as e -> e
  | Ok sum -> (
    match run cluster ~delivery:Executor.Count_only ~auditor (Text input) with
    | Error _ as e -> e
    | Ok { count = 0; _ } -> Error Audit_error.No_matching_records
    | Ok { count; _ } ->
      let numerator =
        match sum with
        | Value.Money cents -> float_of_int cents /. 100.0
        | Value.Int v | Value.Time v -> float_of_int v
        | Value.Str _ -> 0.0 (* unreachable: secret_sum rejects strings *)
      in
      Ok (numerator /. float_of_int count))

let pp_audit cluster fmt a =
  let mean_c_store = mean_c_store cluster a in
  Format.fprintf fmt
    "@[<v>criteria: %a@ matches: %d record(s): %s@ C_auditing = %.3f   mean \
     C_store = %.3f   mean C_query = %.3f@ cost: %d messages, %d bytes, %d \
     rounds@]"
    Query.pp a.criteria (List.length a.matching)
    (String.concat ", " (List.map Glsn.to_string a.matching))
    a.c_auditing mean_c_store
    (a.c_auditing *. mean_c_store)
    a.messages a.bytes a.rounds
