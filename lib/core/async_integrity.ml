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

type message = {
  glsn : Glsn.t;
  acc : Bignum.t;
  hops : int;  (* nodes that have already folded their fragment *)
}

let check_record cluster ?(seed = 0) ?(latency_ms = 1.0) ?(timeout_ms = 100.0)
    ?(down = []) ~initiator glsn =
  let nodes = Cluster.nodes cluster in
  let n = List.length nodes in
  let params = Cluster.accumulator_params cluster in
  let initiator_store = Cluster.store_of cluster initiator in
  match Storage.digest_of initiator_store glsn with
  | None -> (No_digest, 0.0)
  | Some deposited ->
    let rt =
      Net.Runtime.create
        (Net.Config.make ~seed ~latency_ms:(fun _ _ -> latency_ms) ())
    in
    List.iter (Net.Runtime.take_down rt) down;
    let verdict = ref (Timed_out None) in
    let finished = ref false in
    let finish_time = ref 0.0 in
    let last_forwarder = ref None in
    let next_of node = Smc.Proto_util.ring_next nodes node in
    (* Every node folds its fragment and forwards; the initiator, on
       seeing a message that has completed the full ring, compares. *)
    List.iter
      (fun node ->
        Net.Runtime.on_message rt node (fun ~src:_ msg ->
            if not !finished then begin
              if msg.hops = n then begin
                (* Back at the initiator with every fragment folded. *)
                if Net.Node_id.equal node initiator then begin
                  finished := true;
                  finish_time := Net.Runtime.now rt;
                  verdict :=
                    if Bignum.equal msg.acc deposited then Intact
                    else Mismatch
                end
              end
              else begin
                let store = Cluster.store_of cluster node in
                match Storage.fragment_of store glsn with
                | None ->
                  (* A missing row stalls the circulation; the timeout
                     will attribute it. *)
                  ()
                | Some fragment ->
                  let wire = Log_record.fragment_wire ~glsn fragment in
                  let acc =
                    Crypto.Accumulator.accumulate_bytes params msg.acc wire
                  in
                  last_forwarder := Some node;
                  Net.Runtime.send rt ~src:node ~dst:(next_of node)
                    { msg with acc; hops = msg.hops + 1 }
              end
            end))
      nodes;
    (* Kick off: the initiator starts the token toward itself (it folds
       its own fragment through its handler like everyone else). *)
    Net.Runtime.send rt ~src:initiator ~dst:initiator
      { glsn; acc = params.Crypto.Accumulator.x0; hops = 0 };
    Net.Runtime.set_timer rt ~delay_ms:timeout_ms (fun () ->
        if not !finished then begin
          finished := true;
          finish_time := Net.Runtime.now rt;
          verdict := Timed_out !last_forwarder
        end);
    ignore (Net.Runtime.run rt);
    (!verdict, !finish_time)
