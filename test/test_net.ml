(* Dedicated tests for the network substrate: synchronous accounting
   (Network), the observation ledger, and node identities. *)

let dla i = Net.Node_id.Dla i
let user i = Net.Node_id.User i

(* ------------------------------------------------------------------ *)
(* Node identities                                                     *)
(* ------------------------------------------------------------------ *)

let test_node_id_rendering () =
  List.iter
    (fun (node, expected) ->
      Alcotest.(check string) expected expected (Net.Node_id.to_string node))
    [ (dla 0, "P0"); (user 3, "u3"); (Net.Node_id.Ttp "cmp", "ttp:cmp");
      (Net.Node_id.Authority, "authority"); (Net.Node_id.Auditor, "auditor")
    ]

let test_node_id_collections () =
  let ring = Net.Node_id.dla_ring 4 in
  Alcotest.(check int) "ring size" 4 (List.length ring);
  Alcotest.(check (list string)) "ring order" [ "P0"; "P1"; "P2"; "P3" ]
    (List.map Net.Node_id.to_string ring);
  let set = Net.Node_id.Set.of_list (ring @ ring) in
  Alcotest.(check int) "set dedupes" 4 (Net.Node_id.Set.cardinal set);
  Alcotest.(check int) "users" 3 (List.length (Net.Node_id.users 3))

(* ------------------------------------------------------------------ *)
(* Network accounting                                                  *)
(* ------------------------------------------------------------------ *)

let test_network_counters () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let send label bytes =
    match Net.Network.send net ~src:(dla 0) ~dst:(dla 1) ~label ~bytes with
    | Net.Network.Delivered -> ()
    | Net.Network.Dropped r -> Alcotest.failf "dropped: %s" r
  in
  send "alpha" 10;
  send "alpha" 20;
  send "beta" 5;
  Net.Network.round net;
  let stats = Net.Network.stats net in
  Alcotest.(check int) "messages" 3 stats.Net.Network.messages;
  Alcotest.(check int) "bytes" 35 stats.Net.Network.bytes;
  Alcotest.(check int) "rounds" 1 stats.Net.Network.rounds;
  Alcotest.(check (list (pair string int))) "labels"
    [ ("alpha", 2); ("beta", 1) ]
    stats.Net.Network.by_label

let test_network_latency_model () =
  let latency_ms src _dst =
    match src with Net.Node_id.Dla 0 -> 5.0 | _ -> 1.0
  in
  let net = Net.Network.of_config (Net.Config.make ~latency_ms ()) in
  ignore (Net.Network.send net ~src:(dla 0) ~dst:(dla 1) ~label:"x" ~bytes:1);
  ignore (Net.Network.send net ~src:(dla 1) ~dst:(dla 2) ~label:"x" ~bytes:1);
  Net.Network.round net;
  (* A round advances by the max latency charged within it. *)
  Alcotest.(check (float 1e-9)) "virtual time" 5.0
    (Net.Network.stats net).Net.Network.virtual_time_ms;
  ignore (Net.Network.send net ~src:(dla 1) ~dst:(dla 2) ~label:"x" ~bytes:1);
  Net.Network.round net;
  Alcotest.(check (float 1e-9)) "accumulates" 6.0
    (Net.Network.stats net).Net.Network.virtual_time_ms

let test_network_down_nodes () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Net.Network.take_down net (dla 1);
  (match Net.Network.send net ~src:(dla 0) ~dst:(dla 1) ~label:"x" ~bytes:1 with
  | Net.Network.Dropped reason ->
    Alcotest.(check string) "reason" "destination down" reason
  | Net.Network.Delivered -> Alcotest.fail "delivered to a down node");
  (match Net.Network.send net ~src:(dla 1) ~dst:(dla 0) ~label:"x" ~bytes:1 with
  | Net.Network.Dropped reason ->
    Alcotest.(check string) "reason" "source down" reason
  | Net.Network.Delivered -> Alcotest.fail "sent from a down node");
  Alcotest.(check bool) "is_up" false (Net.Network.is_up net (dla 1));
  Net.Network.bring_up net (dla 1);
  Alcotest.(check bool) "recovered" true (Net.Network.is_up net (dla 1));
  match Net.Network.send net ~src:(dla 0) ~dst:(dla 1) ~label:"x" ~bytes:1 with
  | Net.Network.Delivered -> ()
  | Net.Network.Dropped r -> Alcotest.failf "still dropping: %s" r

let test_network_loss_determinism () =
  let count_delivered seed =
    let net = Net.Network.of_config (Net.Config.make ~seed ~loss_rate:0.5 ()) in
    let delivered = ref 0 in
    for _ = 1 to 100 do
      match Net.Network.send net ~src:(dla 0) ~dst:(dla 1) ~label:"x" ~bytes:1 with
      | Net.Network.Delivered -> incr delivered
      | Net.Network.Dropped _ -> ()
    done;
    !delivered
  in
  Alcotest.(check int) "same seed" (count_delivered 9) (count_delivered 9);
  Alcotest.(check bool) "loss in effect" true (count_delivered 9 < 100);
  Alcotest.check_raises "bad loss rate"
    (Invalid_argument "Net.Config.make: loss_rate must be in [0, 1)") (fun () ->
      ignore (Net.Network.of_config (Net.Config.make ~loss_rate:1.5 ())))

let test_network_send_exn () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  Net.Network.take_down net (dla 1);
  Alcotest.(check bool) "raises" true
    (try
       Net.Network.send_exn net ~src:(dla 0) ~dst:(dla 1) ~label:"x" ~bytes:1;
       false
     with Net.Network.Partitioned { reason; _ } -> reason = "destination down")

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let test_ledger_queries () =
  let ledger = Net.Ledger.create () in
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Plaintext
    ~tag:"t1" (Net.Ledger.Text "secret-a");
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Ciphertext
    ~tag:"t2" (Net.Ledger.Text "blob");
  Net.Ledger.record ledger ~node:(dla 1) ~sensitivity:Net.Ledger.Plaintext
    ~tag:"t1" (Net.Ledger.Text "secret-a");
  Alcotest.(check int) "size" 3 (Net.Ledger.size ledger);
  Alcotest.(check bool) "saw plaintext" true
    (Net.Ledger.saw_plaintext ledger ~node:(dla 0) "secret-a");
  Alcotest.(check bool) "kind matters" false
    (Net.Ledger.saw_plaintext ledger ~node:(dla 0) "blob");
  Alcotest.(check (list string)) "exposure" [ "P0"; "P1" ]
    (List.map Net.Node_id.to_string
       (Net.Ledger.plaintext_exposure ledger "secret-a"));
  Alcotest.(check int) "observations in order" 2
    (List.length (Net.Ledger.observations ledger ~node:(dla 0)));
  (match Net.Ledger.observations ledger ~node:(dla 0) with
  | [ (s1, tag1, v1); (s2, _, _) ] ->
    Alcotest.(check bool) "oldest first" true
      (s1 = Net.Ledger.Plaintext && tag1 = "t1" && v1 = "secret-a"
      && s2 = Net.Ledger.Ciphertext)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check (list string)) "nodes_that_saw by kind" [ "P0" ]
    (List.map Net.Node_id.to_string
       (Net.Ledger.nodes_that_saw ledger ~sensitivity:Net.Ledger.Ciphertext
          "blob"))

let test_ledger_sensitivity_names () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string) expected expected
        (Net.Ledger.sensitivity_to_string s))
    [ (Net.Ledger.Plaintext, "plaintext"); (Net.Ledger.Ciphertext, "ciphertext");
      (Net.Ledger.Blinded, "blinded"); (Net.Ledger.Share, "share");
      (Net.Ledger.Aggregate, "aggregate"); (Net.Ledger.Metadata, "metadata")
    ]

(* Typed payloads: rendering on read must give exactly the strings the
   eager ledger stored — one [Bignum.to_string]/[Bignum.to_hex] string
   per batch element, a [","]-joined string per glsn set. *)

let bn = Numtheory.Bignum.of_int
let glsns = List.map Dla.Glsn.of_string [ "139aef78"; "139aef79"; "139aef7c" ]

let observed ledger node =
  List.map
    (fun (s, tag, v) ->
      Printf.sprintf "%s %s %s" (Net.Ledger.sensitivity_to_string s) tag v)
    (Net.Ledger.observations ledger ~node)

let test_payload_rendering () =
  let values =
    [ bn 0; bn 7; bn (-255);
      Numtheory.Bignum.of_string "12345678901234567890123" ]
  in
  let ledger = Net.Ledger.create () in
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Blinded
    ~tag:"dec" (Net.Ledger.Batch (Numtheory.Bignum.to_string, values));
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Ciphertext
    ~tag:"hex" (Net.Ledger.Batch (Numtheory.Bignum.to_hex, values));
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Metadata
    ~tag:"set" (Net.Ledger.Joined (Dla.Glsn.to_string, glsns));
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Aggregate
    ~tag:"text" (Net.Ledger.Text "3");
  let eager =
    List.map (fun v -> "blinded dec " ^ Numtheory.Bignum.to_string v) values
    @ List.map (fun v -> "ciphertext hex " ^ Numtheory.Bignum.to_hex v) values
    @ [ "metadata set "
        ^ String.concat "," (List.map Dla.Glsn.to_string glsns);
        "aggregate text 3" ]
  in
  Alcotest.(check (list string)) "rendered = eager strings" eager
    (observed ledger (dla 0));
  Alcotest.(check (list string)) "literal renderings"
    [ "blinded dec 0"; "blinded dec 7"; "blinded dec -255";
      "blinded dec 12345678901234567890123"; "ciphertext hex 0";
      "ciphertext hex 7"; "ciphertext hex -ff";
      "ciphertext hex 29d42b64e76714244cb";
      "metadata set 139aef78,139aef79,139aef7c"; "aggregate text 3" ]
    (observed ledger (dla 0));
  Alcotest.(check int) "size counts batch elements, a set once" 10
    (Net.Ledger.size ledger)

let test_payload_empty () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let ledger = Net.Network.ledger net in
  let events = ref [] in
  Smc.Proto_util.with_transcript_hook
    (fun ev -> events := ev.Smc.Proto_util.value :: !events)
    (fun () ->
      Smc.Proto_util.observe net ~node:(dla 0)
        ~sensitivity:Net.Ledger.Ciphertext ~tag:"empty-batch"
        (Net.Ledger.Batch (Numtheory.Bignum.to_hex, []));
      Alcotest.(check int) "empty batch records nothing" 0
        (Net.Ledger.size ledger);
      Alcotest.(check (list string)) "empty batch emits no event" []
        !events;
      Smc.Proto_util.observe net ~node:(dla 0)
        ~sensitivity:Net.Ledger.Metadata ~tag:"empty-set"
        (Net.Ledger.Joined (Dla.Glsn.to_string, [])));
  Alcotest.(check int) "empty set is one observation" 1
    (Net.Ledger.size ledger);
  Alcotest.(check (list string)) "empty set renders as \"\""
    [ "metadata empty-set " ] (observed ledger (dla 0));
  Alcotest.(check (list string)) "empty set emits one \"\" event" [ "" ]
    !events

let test_payload_hook_order () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let events = ref [] in
  Smc.Proto_util.with_transcript_hook
    (fun ev ->
      events :=
        Smc.Proto_util.(ev.tag, ev.value, ev.phase) :: !events)
    (fun () ->
      Smc.Proto_util.span net "payload-test" (fun () ->
          Smc.Proto_util.observe net ~node:(dla 1)
            ~sensitivity:Net.Ledger.Ciphertext ~tag:"a"
            (Net.Ledger.Batch (Numtheory.Bignum.to_hex, [ bn 255; bn 16 ]));
          Smc.Proto_util.observe net ~node:(dla 1)
            ~sensitivity:Net.Ledger.Metadata ~tag:"b"
            (Net.Ledger.Joined (Dla.Glsn.to_string, glsns))));
  Alcotest.(check (list (triple string string (list string))))
    "one event per observation, in order, stamped with the phase"
    [ ("a", "ff", [ "payload-test" ]); ("a", "10", [ "payload-test" ]);
      ("b", "139aef78,139aef79,139aef7c", [ "payload-test" ]) ]
    (List.rev !events);
  Alcotest.(check (list string)) "ledger agrees with the transcript"
    [ "ciphertext a ff"; "ciphertext a 10";
      "metadata b 139aef78,139aef79,139aef7c" ]
    (observed (Net.Network.ledger net) (dla 1))

let test_payload_queries () =
  let ledger = Net.Ledger.create () in
  Net.Ledger.record ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Plaintext
    ~tag:"own" (Net.Ledger.Batch (Fun.id, [ "x=1"; "y=2" ]));
  Net.Ledger.record ledger ~node:(dla 1) ~sensitivity:Net.Ledger.Blinded
    ~tag:"col"
    (Net.Ledger.Batch (Numtheory.Bignum.to_string, [ bn 41; bn 42 ]));
  Net.Ledger.record ledger ~node:(dla 2) ~sensitivity:Net.Ledger.Plaintext
    ~tag:"own" (Net.Ledger.Text "y=2");
  Net.Ledger.record ledger ~node:(dla 2) ~sensitivity:Net.Ledger.Metadata
    ~tag:"set" (Net.Ledger.Joined (Dla.Glsn.to_string, glsns));
  let names = List.map Net.Node_id.to_string in
  Alcotest.(check bool) "saw finds a batch element" true
    (Net.Ledger.saw ledger ~node:(dla 1) ~sensitivity:Net.Ledger.Blinded "42");
  Alcotest.(check bool) "saw respects sensitivity" false
    (Net.Ledger.saw ledger ~node:(dla 1) ~sensitivity:Net.Ledger.Plaintext
       "42");
  Alcotest.(check bool) "saw respects the node" false
    (Net.Ledger.saw ledger ~node:(dla 0) ~sensitivity:Net.Ledger.Blinded "42");
  Alcotest.(check (list string)) "plaintext exposure through a batch"
    [ "P0"; "P2" ]
    (names (Net.Ledger.plaintext_exposure ledger "y=2"));
  Alcotest.(check (list string)) "nodes_that_saw by kind" [ "P1" ]
    (names
       (Net.Ledger.nodes_that_saw ledger ~sensitivity:Net.Ledger.Blinded "41"));
  Alcotest.(check (list string)) "a blinded element is no plaintext" []
    (names (Net.Ledger.plaintext_exposure ledger "41"));
  Alcotest.(check bool) "a joined set matches only whole" true
    (Net.Ledger.saw ledger ~node:(dla 2) ~sensitivity:Net.Ledger.Metadata
       "139aef78,139aef79,139aef7c"
    && not
         (Net.Ledger.saw ledger ~node:(dla 2) ~sensitivity:Net.Ledger.Metadata
            "139aef78"))

let () =
  Alcotest.run "net"
    [ ( "node-id",
        [ Alcotest.test_case "rendering" `Quick test_node_id_rendering;
          Alcotest.test_case "collections" `Quick test_node_id_collections
        ] );
      ( "network",
        [ Alcotest.test_case "counters" `Quick test_network_counters;
          Alcotest.test_case "latency model" `Quick test_network_latency_model;
          Alcotest.test_case "down nodes" `Quick test_network_down_nodes;
          Alcotest.test_case "loss determinism" `Quick test_network_loss_determinism;
          Alcotest.test_case "send_exn" `Quick test_network_send_exn
        ] );
      ( "ledger",
        [ Alcotest.test_case "queries" `Quick test_ledger_queries;
          Alcotest.test_case "sensitivity names" `Quick
            test_ledger_sensitivity_names;
          Alcotest.test_case "payload rendering" `Quick test_payload_rendering;
          Alcotest.test_case "empty payloads" `Quick test_payload_empty;
          Alcotest.test_case "payload hook order" `Quick
            test_payload_hook_order;
          Alcotest.test_case "payload queries" `Quick test_payload_queries
        ] )
    ]
