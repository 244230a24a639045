type rule =
  | Atomicity of { expected_events : int }
  | Non_repudiation of { action_memo : string; receipt_memo : string }
  | Ordering of { first_memo : string; then_memo : string }
  | Time_window of { max_seconds : int }
  | Consistency of string
  | Frequency_cap of { memo : string; max_occurrences : int }

let rule_to_string = function
  | Atomicity { expected_events } ->
    Printf.sprintf "atomicity(%d events)" expected_events
  | Non_repudiation { action_memo; receipt_memo } ->
    Printf.sprintf "non-repudiation(%s -> %s)" action_memo receipt_memo
  | Ordering { first_memo; then_memo } ->
    Printf.sprintf "ordering(%s before %s)" first_memo then_memo
  | Time_window { max_seconds } ->
    Printf.sprintf "time-window(%ds)" max_seconds
  | Consistency criteria -> Printf.sprintf "consistency(%s)" criteria
  | Frequency_cap { memo; max_occurrences } ->
    Printf.sprintf "frequency-cap(%s <= %d)" memo max_occurrences

let audit_glsns cluster ~auditor criteria =
  match
    Auditor_engine.run cluster ~auditor (Auditor_engine.Text criteria)
  with
  | Ok audit -> Ok audit.Auditor_engine.matching
  | Error e -> Error (Audit_error.to_string e)

(* Times live at one home node; it computes the temporal predicate
   locally and reports only the boolean to the auditor. *)
let times_of cluster glsns =
  let time_attr = Attribute.defined "time" in
  match Fragmentation.home_of (Cluster.fragmentation cluster) time_attr with
  | None -> Error "no DLA node supports the time attribute"
  | Some home ->
    let store = Cluster.store_of cluster home in
    let times =
      List.filter_map
        (fun glsn ->
          match Storage.fragment_of store glsn with
          | None -> None
          | Some fragment -> (
            match List.assoc_opt time_attr fragment with
            | Some (Value.Time t) -> Some t
            | Some _ | None -> None))
        glsns
    in
    (* Auditor -> home: the glsn sets; home -> auditor: one boolean. *)
    let net = Cluster.net cluster in
    Net.Network.send_exn net ~src:Net.Node_id.Auditor ~dst:home
      ~label:"rules:temporal-request" ~bytes:(8 * List.length glsns);
    Net.Network.send_exn net ~src:home ~dst:Net.Node_id.Auditor
      ~label:"rules:temporal-verdict" ~bytes:1;
    Net.Network.round net;
    Ok times

let tid_criteria tid = Printf.sprintf {|tid = "%s"|} tid

let check cluster ~auditor ~tid rule =
  let ( let* ) = Result.bind in
  match rule with
  | Atomicity { expected_events } ->
    let* glsns = audit_glsns cluster ~auditor (tid_criteria tid) in
    let n = List.length glsns in
    if n = expected_events then Ok ()
    else
      Error
        (Printf.sprintf "expected %d events, found %d" expected_events n)
  | Non_repudiation { action_memo; receipt_memo } ->
    let count memo =
      Result.map List.length
        (audit_glsns cluster ~auditor
           (Printf.sprintf {|tid = "%s" && C3 = "%s"|} tid memo))
    in
    let* actions = count action_memo in
    let* receipts = count receipt_memo in
    if actions = receipts then Ok ()
    else
      Error
        (Printf.sprintf "%d %s event(s) but %d %s event(s)" actions
           action_memo receipts receipt_memo)
  | Ordering { first_memo; then_memo } ->
    let glsns_for memo =
      audit_glsns cluster ~auditor
        (Printf.sprintf {|tid = "%s" && C3 = "%s"|} tid memo)
    in
    let* first_glsns = glsns_for first_memo in
    let* then_glsns = glsns_for then_memo in
    let* first_times = times_of cluster first_glsns in
    let* then_times = times_of cluster then_glsns in
    (match (first_times, then_times) with
    | [], _ | _, [] -> Ok () (* vacuous *)
    | _ ->
      let latest_first = List.fold_left max min_int first_times in
      let earliest_then = List.fold_left min max_int then_times in
      if latest_first <= earliest_then then Ok ()
      else
        Error
          (Printf.sprintf "a %s event follows a %s event" first_memo
             then_memo))
  | Time_window { max_seconds } ->
    let* glsns = audit_glsns cluster ~auditor (tid_criteria tid) in
    let* times = times_of cluster glsns in
    (match times with
    | [] -> Ok ()
    | t :: rest ->
      let lo = List.fold_left min t rest and hi = List.fold_left max t rest in
      if hi - lo <= max_seconds then Ok ()
      else
        Error
          (Printf.sprintf "transaction spans %ds > %ds" (hi - lo) max_seconds))
  | Consistency criteria ->
    let* all = audit_glsns cluster ~auditor (tid_criteria tid) in
    let* compliant =
      audit_glsns cluster ~auditor
        (Printf.sprintf {|%s && (%s)|} (tid_criteria tid) criteria)
    in
    let bad = List.length all - List.length compliant in
    if bad = 0 then Ok ()
    else Error (Printf.sprintf "%d event(s) violate %s" bad criteria)
  | Frequency_cap { memo; max_occurrences } ->
    (* Secret counting is enough here: only the count crosses to the
       auditor. *)
    let* count =
      match
        Auditor_engine.run cluster ~delivery:Executor.Count_only ~auditor
          (Auditor_engine.Text
             (Printf.sprintf {|tid = "%s" && C3 = "%s"|} tid memo))
      with
      | Ok audit -> Ok audit.Auditor_engine.count
      | Error e -> Error (Audit_error.to_string e)
    in
    if count <= max_occurrences then Ok ()
    else
      Error
        (Printf.sprintf "%d %s event(s), cap is %d" count memo max_occurrences)

let check_all cluster ~auditor ~tid rules =
  List.filter_map
    (fun rule ->
      match check cluster ~auditor ~tid rule with
      | Ok () -> None
      | Error detail -> Some (rule, detail))
    rules
