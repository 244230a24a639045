type recovery_mode = Rehost | Exclude

type event = { attempt : int; accused : Net.Node_id.t list; detail : string }

type outcome = {
  report : Executor.report;
  attempts : int;
  quarantined : Net.Node_id.t list;
  events : event list;
  verify_msgs : int;
  verify_bytes : int;
}

let union_nodes a b =
  List.sort_uniq Net.Node_id.compare (List.rev_append a b)

let fence cluster ?cache ~recovery node =
  Cluster.quarantine cluster node;
  Obs.Metrics.incr "byz.quarantined";
  (match cache with
  | Some cache -> ignore (Executor.cache_purge cache ~nodes:[ node ])
  | None -> ());
  (* Fencing the adversary is the model of re-hosting: the compromised
     process is gone, so its plans stop firing on the wire. *)
  (match Net.Adversary.current () with
  | Some adv -> Net.Adversary.quarantine adv node
  | None -> ());
  match recovery with
  | Rehost ->
    (* the honest replacement serves the same fragments immediately *)
    Cluster.lift_quarantine cluster node
  | Exclude -> ()

let audit cluster ?(recovery = Rehost) ?cache ~auditor criteria =
  let n = List.length (Cluster.nodes cluster) in
  let tolerance = (n - 1) / 2 in
  let max_attempts = tolerance + 1 in
  let rec go ~attempt ~fenced ~events ~vmsgs ~vbytes =
    let guard = Smc.Round_guard.create () in
    let on_failure =
      (* an excluded node must degrade, not abort, the retry *)
      match (recovery, fenced) with
      | Exclude, _ :: _ -> Executor.Degrade
      | _ -> Executor.Fail
    in
    let result =
      Smc.Round_guard.with_guard guard (fun () ->
          Executor.run cluster ~on_failure ?cache ~auditor criteria)
    in
    let gm, gb = Smc.Round_guard.verify_cost guard in
    let vmsgs = vmsgs + gm and vbytes = vbytes + gb in
    match result with
    | Error e -> Error e
    | Ok report -> (
      match Smc.Round_guard.accusations guard with
      | [] ->
        Ok
          {
            report;
            attempts = attempt;
            quarantined = fenced;
            events = List.rev events;
            verify_msgs = vmsgs;
            verify_bytes = vbytes;
          }
      | accusations ->
        let accused = Smc.Round_guard.accused_nodes guard in
        let detail =
          String.concat "; "
            (List.map Smc.Round_guard.accusation_to_string accusations)
        in
        let events = { attempt; accused; detail } :: events in
        let fenced = union_nodes fenced accused in
        Obs.Metrics.incr "byz.detection_rounds";
        if List.length fenced > tolerance then
          Error
            (Audit_error.Byzantine_fault
               {
                 accused = fenced;
                 during = "audit";
                 detail =
                   Printf.sprintf
                     "%d accused node(s) exceed collusion tolerance %d"
                     (List.length fenced) tolerance;
               })
        else if attempt >= max_attempts then
          Error
            (Audit_error.Byzantine_fault
               {
                 accused = fenced;
                 during = "audit";
                 detail =
                   Printf.sprintf "retry budget exhausted after %d attempt(s)"
                     attempt;
               })
        else begin
          List.iter (fence cluster ?cache ~recovery) accused;
          go ~attempt:(attempt + 1) ~fenced ~events ~vmsgs ~vbytes
        end)
  in
  go ~attempt:1 ~fenced:[] ~events:[] ~vmsgs:0 ~vbytes:0
