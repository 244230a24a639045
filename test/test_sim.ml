(* Tests for the discrete-event substrate (event queue, Net.Runtime
   engine) and the asynchronous §4.1 integrity circulation built on it —
   including the agreement property between the synchronous and
   asynchronous implementations. *)

open Dla

let d = Attribute.defined
let u = Attribute.undefined

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_ordering () =
  let q = Net.Event_queue.create () in
  Net.Event_queue.push q ~time:3.0 "c";
  Net.Event_queue.push q ~time:1.0 "a";
  Net.Event_queue.push q ~time:2.0 "b";
  let drain () =
    let rec go acc =
      match Net.Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, x) -> go (x :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain ())

let test_queue_fifo_ties () =
  let q = Net.Event_queue.create () in
  List.iter (fun x -> Net.Event_queue.push q ~time:5.0 x) [ "1"; "2"; "3" ];
  let rec drain acc =
    match Net.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list string)) "FIFO among ties" [ "1"; "2"; "3" ] (drain [])

let test_queue_validation () =
  let q = Net.Event_queue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Net.Event_queue.push q ~time:(-1.0) ());
  Alcotest.check_raises "nan time"
    (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Net.Event_queue.push q ~time:Float.nan ());
  (* An infinite time would wedge [run_until]: the event sorts after
     every finite deadline yet never becomes due. *)
  Alcotest.check_raises "infinite time"
    (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Net.Event_queue.push q ~time:Float.infinity ());
  Alcotest.(check bool) "empty" true (Net.Event_queue.is_empty q);
  Alcotest.(check bool) "pop empty" true (Net.Event_queue.pop q = None)

let prop_queue_sorts =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 100) (QCheck.int_range 0 1000))
    (fun times ->
      let q = Net.Event_queue.create () in
      List.iter (fun t -> Net.Event_queue.push q ~time:(float_of_int t) t) times;
      let rec drain acc =
        match Net.Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, x) -> drain (x :: acc)
      in
      drain [] = List.stable_sort compare times)

(* ------------------------------------------------------------------ *)
(* Runtime engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_sim_ping_pong () =
  let rt = Net.Runtime.create (Net.Config.make ()) in
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
  let log = ref [] in
  Net.Runtime.on_message rt a (fun ~src:_ n ->
      log := ("a", n) :: !log;
      if n < 3 then Net.Runtime.send rt ~src:a ~dst:b (n + 1));
  Net.Runtime.on_message rt b (fun ~src:_ n ->
      log := ("b", n) :: !log;
      Net.Runtime.send rt ~src:b ~dst:a (n + 1));
  Net.Runtime.send rt ~src:a ~dst:b 0;
  let events = Net.Runtime.run rt in
  Alcotest.(check bool) "events processed" true (events >= 4);
  Alcotest.(check (list (pair string int)))
    "conversation"
    [ ("b", 0); ("a", 1); ("b", 2); ("a", 3) ]
    (List.rev !log);
  (* Latency 1ms per hop: 4 deliveries -> 4ms. *)
  Alcotest.(check (float 1e-9)) "virtual time" 4.0 (Net.Runtime.now rt)

let test_sim_timers_and_down () =
  let rt = Net.Runtime.create (Net.Config.make ()) in
  let fired = ref [] in
  Net.Runtime.set_timer rt ~delay_ms:5.0 (fun () -> fired := 5 :: !fired);
  Net.Runtime.set_timer rt ~delay_ms:2.0 (fun () -> fired := 2 :: !fired);
  ignore (Net.Runtime.run rt);
  Alcotest.(check (list int)) "timer order" [ 2; 5 ] (List.rev !fired);
  let rt = Net.Runtime.create (Net.Config.make ()) in
  let got = ref false in
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
  Net.Runtime.on_message rt b (fun ~src:_ () -> got := true);
  Net.Runtime.take_down rt b;
  Net.Runtime.send rt ~src:a ~dst:b ();
  ignore (Net.Runtime.run rt);
  Alcotest.(check bool) "down node got nothing" false !got;
  Alcotest.(check int) "dropped" 1 (Net.Runtime.dropped rt)

let test_sim_until () =
  let rt = Net.Runtime.create (Net.Config.make ()) in
  let fired = ref 0 in
  Net.Runtime.set_timer rt ~delay_ms:1.0 (fun () -> incr fired);
  Net.Runtime.set_timer rt ~delay_ms:50.0 (fun () -> incr fired);
  ignore (Net.Runtime.run ~until_ms:10.0 rt);
  Alcotest.(check int) "only early timer" 1 !fired

let test_sim_determinism () =
  let run () =
    let rt = Net.Runtime.create (Net.Config.make ~seed:7 ~loss_rate:0.3 ()) in
    let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 in
    let count = ref 0 in
    Net.Runtime.on_message rt b (fun ~src:_ () -> incr count);
    for _ = 1 to 50 do
      Net.Runtime.send rt ~src:a ~dst:b ()
    done;
    ignore (Net.Runtime.run rt);
    !count
  in
  Alcotest.(check int) "same seed same outcome" (run ()) (run ());
  Alcotest.(check bool) "loss actually drops" true (run () < 50)

(* ------------------------------------------------------------------ *)
(* Async integrity                                                     *)
(* ------------------------------------------------------------------ *)

let populated_cluster () =
  let cluster = Cluster.create ~seed:70 Fragmentation.paper_partition in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86400
  in
  let glsns =
    List.map
      (fun time ->
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
               ~attributes:
                 [ (d "time", Value.Time time); (d "id", Value.Str "U1");
                   (u 2, Value.Money (time * 2))
                 ])
        with
        | Ok glsn -> glsn
        | Error e -> Alcotest.failf "submit: %s" e)
      [ 100; 200; 300 ]
  in
  (cluster, glsns)

let test_async_intact () =
  let cluster, glsns = populated_cluster () in
  let verdict, time =
    Async_integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0)
      (List.hd glsns)
  in
  Alcotest.(check string) "intact" "intact"
    (Async_integrity.verdict_to_string verdict);
  (* Ring of 4 at 1ms/hop plus the kick-off delivery: 5 hops = 5ms. *)
  Alcotest.(check (float 1e-9)) "latency" 5.0 time

let test_async_matches_sync () =
  let cluster, glsns = populated_cluster () in
  (* Tamper one record; both implementations must agree on every glsn. *)
  let victim = List.nth glsns 1 in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  ignore (Storage.tamper_set store ~glsn:victim ~attr:(u 2) (Value.Money 1));
  List.iter
    (fun glsn ->
      let sync_ok =
        Integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0) glsn
        = Ok ()
      in
      let async_verdict, _ =
        Async_integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0)
          glsn
      in
      let async_ok = async_verdict = Async_integrity.Intact in
      Alcotest.(check bool) (Glsn.to_string glsn) sync_ok async_ok)
    glsns

let test_async_timeout_on_dead_node () =
  let cluster, glsns = populated_cluster () in
  let verdict, time =
    Async_integrity.check_record cluster ~down:[ Net.Node_id.Dla 2 ]
      ~timeout_ms:50.0 ~initiator:(Net.Node_id.Dla 0) (List.hd glsns)
  in
  (match verdict with
  | Async_integrity.Timed_out (Some last) ->
    (* P1 was the last to forward; the break is at its successor P2. *)
    Alcotest.(check string) "last forwarder" "P1" (Net.Node_id.to_string last)
  | other ->
    Alcotest.failf "expected timeout, got %s"
      (Async_integrity.verdict_to_string other));
  Alcotest.(check (float 1e-9)) "timeout time" 50.0 time

let test_async_missing_fragment_times_out () =
  let cluster, glsns = populated_cluster () in
  let victim = List.hd glsns in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 3) in
  ignore (Storage.tamper_delete store ~glsn:victim);
  let verdict, _ =
    Async_integrity.check_record cluster ~timeout_ms:30.0
      ~initiator:(Net.Node_id.Dla 0) victim
  in
  match verdict with
  | Async_integrity.Timed_out _ -> ()
  | other ->
    Alcotest.failf "expected timeout, got %s"
      (Async_integrity.verdict_to_string other)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [ ( "event-queue",
        Alcotest.test_case "ordering" `Quick test_queue_ordering
        :: Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties
        :: Alcotest.test_case "validation" `Quick test_queue_validation
        :: qt [ prop_queue_sorts ] );
      ( "engine",
        [ Alcotest.test_case "ping pong" `Quick test_sim_ping_pong;
          Alcotest.test_case "timers and down nodes" `Quick test_sim_timers_and_down;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "determinism" `Quick test_sim_determinism
        ] );
      ( "async-integrity",
        [ Alcotest.test_case "intact" `Quick test_async_intact;
          Alcotest.test_case "matches sync" `Quick test_async_matches_sync;
          Alcotest.test_case "timeout on dead node" `Quick
            test_async_timeout_on_dead_node;
          Alcotest.test_case "missing fragment" `Quick
            test_async_missing_fragment_times_out
        ] )
    ]
