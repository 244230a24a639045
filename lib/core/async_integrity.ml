open Numtheory

type verdict =
  | Intact
  | Mismatch
  | Timed_out of Net.Node_id.t option
  | No_digest

let verdict_to_string = function
  | Intact -> "intact"
  | Mismatch -> "mismatch"
  | Timed_out (Some node) ->
    Printf.sprintf "timed out (last forwarder %s)" (Net.Node_id.to_string node)
  | Timed_out None -> "timed out"
  | No_digest -> "no digest"

let check_record cluster ?(latency_ms = 1.0) ?(timeout_ms = 100.0) ?(down = [])
    ~initiator glsn =
  let nodes = Cluster.nodes cluster in
  let n = List.length nodes in
  let params = Cluster.accumulator_params cluster in
  let initiator_store = Cluster.store_of cluster initiator in
  match Storage.digest_of initiator_store glsn with
  | None -> (No_digest, 0.0)
  | Some deposited ->
    let is_down node = List.exists (Net.Node_id.equal node) down in
    let arrival now =
      let at = now +. latency_ms in
      if Float.is_finite at && at >= 0.0 then at
      else invalid_arg "Async_integrity.check_record: bad latency"
    in
    (* Kick off: the initiator sends the token to itself (it folds its
       own fragment like everyone else); a down initiator sends
       nothing. *)
    let kick_off = if is_down initiator then None else Some (arrival 0.0) in
    if timeout_ms < 0.0 || not (Float.is_finite timeout_ms) then
      invalid_arg "Async_integrity.check_record: bad timeout";
    (* Read off a clock that starts at 0, so a -0.0 timeout ends at 0.0. *)
    let deadline = 0.0 +. timeout_ms in
    (* The timeout is armed right after the kick-off is sent, so the
       kick-off wins a tie with it and every later arrival loses one.
       Every node folds its fragment into the accumulator and forwards
       it; the initiator, on seeing the token back with every fragment
       folded, compares.  A late token, a down node or a missing row
       stalls the circulation until the timeout, which names the last
       node that forwarded. *)
    let rec walk node ~at ~acc ~hops ~last_forwarder =
      let in_time = if hops = 0 then at <= deadline else at < deadline in
      if (not in_time) || is_down node then (Timed_out last_forwarder, deadline)
      else if hops = n then
        ((if Bignum.equal acc deposited then Intact else Mismatch), at)
      else
        match Storage.fragment_of (Cluster.store_of cluster node) glsn with
        | None -> (Timed_out last_forwarder, deadline)
        | Some fragment ->
          let acc =
            Crypto.Accumulator.accumulate_bytes params acc
              (Log_record.fragment_wire ~glsn fragment)
          in
          walk
            (Smc.Proto_util.ring_next nodes node)
            ~at:(arrival at) ~acc ~hops:(hops + 1) ~last_forwarder:(Some node)
    in
    match kick_off with
    | None -> (Timed_out None, deadline)
    | Some at ->
      walk initiator ~at ~acc:params.Crypto.Accumulator.x0 ~hops:0
        ~last_forwarder:None
