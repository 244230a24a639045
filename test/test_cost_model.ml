(* Paper-conformance cost tests (§3 cost tables).

   Each relaxed-SMC protocol has a closed-form cost in the paper:
   messages, synchronous rounds, and cryptographic operations as a
   function of the party count n and per-party set size m.  These tests
   run every protocol against a fresh network with the global metrics
   registry reset, then assert the measured counters EQUAL the formula
   — not approximately, exactly.  A counted regression (an extra
   message, a dropped round, a doubled encryption) fails here even when
   the protocol's answer stays correct. *)

open Numtheory

let bn = Bignum.of_int
let node i = Net.Node_id.Dla i

let xor_scheme seed =
  Crypto.Commutative.xor_pad (Prng.create ~seed)
    (Crypto.Xor_pad.params ~width_bits:256)

let ph_scheme seed =
  let rng = Prng.create ~seed:777 in
  let params = Crypto.Pohlig_hellman.generate_params rng ~bits:64 in
  Crypto.Commutative.pohlig_hellman (Prng.create ~seed) params

(* Run [f] against a fresh network with clean metrics; return the net. *)
let measured f =
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  let net = Net.Network.of_config (Net.Config.make ()) in
  f net;
  net

let check name expected counter =
  Alcotest.(check int) (name ^ " = " ^ counter) expected (Obs.Metrics.get counter)

(* ------------------------------------------------------------------ *)
(* ∩ₛ — secure set intersection                                        *)
(*   messages n²−1, rounds n, commutative encryptions n²·m             *)
(* ------------------------------------------------------------------ *)

let intersection_parties ~n ~m =
  List.init n (fun i ->
      { Smc.Set_intersection.node = node i;
        set = List.init m (Printf.sprintf "e%d_%d" i)
      })

let test_intersection_costs () =
  List.iter
    (fun (n, m) ->
      let label = Printf.sprintf "intersection n=%d m=%d" n m in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Set_intersection.run ~net ~scheme:(xor_scheme (n + m))
                 ~receiver:(node 0)
                 (intersection_parties ~n ~m)))
      in
      check label ((n * n) - 1) "net.msgs";
      check label n "net.rounds";
      check label n "net.rounds.intersection";
      check label (n * (n - 1)) "net.msg.intersection:relay";
      check label (n - 1) "net.msg.intersection:collect";
      check label (n * n * m) "crypto.commutative.enc";
      check label 0 "crypto.commutative.dec")
    [ (2, 3); (3, 3); (4, 2); (5, 4) ]

(* The reactor knobs must not move any §3 closed form: the same run
   under frame coalescing and a 4-domain compute pool produces the
   exact counts above, with the frame layer pinned to the logical
   message stream (frame.msgs = net.msgs, frame.sends <= net.msgs). *)
let test_intersection_costs_reactor_invariant () =
  let n = 3 and m = 2 in
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.with_pool pool (fun () ->
          Obs.Metrics.reset ();
          Obs.Trace.reset ();
          let net =
            Net.Network.of_config (Net.Config.make ~coalesce:true ~domains:4 ())
          in
          ignore
            (Smc.Set_intersection.run ~net ~scheme:(xor_scheme (n + m))
               ~receiver:(node 0)
               (intersection_parties ~n ~m))));
  check "reactor intersection" ((n * n) - 1) "net.msgs";
  check "reactor intersection" n "net.rounds";
  check "reactor intersection" (n * n * m) "crypto.commutative.enc";
  check "reactor intersection" ((n * n) - 1) "net.frame.msgs";
  Alcotest.(check bool) "frame.sends <= net.msgs" true
    (Obs.Metrics.get "net.frame.sends" <= Obs.Metrics.get "net.msgs")

let test_intersection_costs_scheme_agnostic () =
  (* The count formulas hold whatever cipher backs the run: repeat one
     size under Pohlig–Hellman.  Each PH encryption is one modexp. *)
  let n = 3 and m = 2 in
  let _ =
    measured (fun net ->
        ignore
          (Smc.Set_intersection.run ~net ~scheme:(ph_scheme 9)
             ~receiver:(node 0)
             (intersection_parties ~n ~m)))
  in
  check "ph intersection" ((n * n) - 1) "net.msgs";
  check "ph intersection" (n * n * m) "crypto.commutative.enc";
  check "ph intersection" (n * n * m) "crypto.modexp"

(* ------------------------------------------------------------------ *)
(* =ₛ — secure equality via the blind TTP                              *)
(*   messages 5 (negotiate + 2 submits + 2 verdicts), rounds 3,        *)
(*   affine blindings 2                                                *)
(* ------------------------------------------------------------------ *)

let test_equality_costs () =
  List.iter
    (fun (seed, l, r) ->
      let label = Printf.sprintf "equality %d≟%d" l r in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Equality.via_ttp ~net ~rng:(Prng.create ~seed)
                 ~p:(bn 1009)
                 ~ttp:(Net.Node_id.Ttp "eq")
                 ~left:(node 0, bn l) ~right:(node 1, bn r)))
      in
      check label 5 "net.msgs";
      check label 3 "net.rounds";
      check label 3 "net.rounds.equality";
      check label 1 "net.msg.equality:negotiate";
      check label 2 "net.msg.equality:submit";
      check label 2 "net.msg.equality:verdict";
      check label 2 "crypto.blind.affine")
    [ (41, 7, 7); (42, 7, 8); (43, 0, 1008) ]

(* ------------------------------------------------------------------ *)
(* =ₛ over an agreed mapping table (§3.2 verbatim)                     *)
(*   the table message and its round, then =ₛ itself: messages 6,      *)
(*   rounds 4, affine blindings 2                                      *)
(* ------------------------------------------------------------------ *)

let test_mapping_table_costs () =
  List.iter
    (fun (seed, l, r) ->
      let label = Printf.sprintf "mapping table %s≟%s" l r in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Equality.via_mapping_table ~net ~rng:(Prng.create ~seed)
                 ~ttp:(Net.Node_id.Ttp "eq")
                 ~domain:[ "UDP"; "TCP"; "ICMP" ]
                 ~left:(node 0, l) ~right:(node 1, r)))
      in
      check label 6 "net.msgs";
      check label 4 "net.rounds";
      check label 4 "net.rounds.equality";
      check label 1 "net.msg.equality:table";
      check label 1 "net.msg.equality:negotiate";
      check label 2 "net.msg.equality:submit";
      check label 2 "net.msg.equality:verdict";
      check label 2 "crypto.blind.affine")
    [ (44, "TCP", "TCP"); (45, "TCP", "ICMP") ]

(* ------------------------------------------------------------------ *)
(* Rankₛ — secure ranking via the blind TTP                            *)
(*   messages 3n−1, rounds 3, monotone blindings n                     *)
(* ------------------------------------------------------------------ *)

let test_ranking_costs () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "ranking n=%d" n in
      let parties =
        List.init n (fun i -> { Smc.Ranking.node = node i; value = bn (i * 7) })
      in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Ranking.run ~net
                 ~rng:(Prng.create ~seed:n)
                 ~ttp:(Net.Node_id.Ttp "rank") parties))
      in
      check label ((3 * n) - 1) "net.msgs";
      check label 3 "net.rounds";
      check label 3 "net.rounds.ranking";
      check label (n - 1) "net.msg.ranking:negotiate";
      check label n "net.msg.ranking:submit";
      check label n "net.msg.ranking:verdict";
      check label n "crypto.blind.monotone")
    [ 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* ∪ₛ — secure set union (disjoint sets, receiver = first ring party)  *)
(*   collection phase as ∩ₛ (n²−1 messages, n rounds, n²·m enc), then  *)
(*   the decode ring: n messages, n rounds, n·u = n²·m decryptions     *)
(*   (u = n·m distinct ciphertexts when the inputs are disjoint).      *)
(* ------------------------------------------------------------------ *)

let test_union_costs () =
  List.iter
    (fun (n, m) ->
      let label = Printf.sprintf "union n=%d m=%d" n m in
      let parties =
        List.init n (fun i ->
            { Smc.Set_union.node = node i;
              set = List.init m (Printf.sprintf "u%d_%d" i)
            })
      in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Set_union.run ~net ~scheme:(xor_scheme (10 * n))
                 ~rng:(Prng.create ~seed:m)
                 ~receiver:(node 0) parties))
      in
      check label ((n * n) + n - 1) "net.msgs";
      check label (2 * n) "net.rounds";
      check label (2 * n) "net.rounds.union";
      check label (n * (n - 1)) "net.msg.union:relay";
      check label (n - 1) "net.msg.union:collect";
      check label (n - 1) "net.msg.union:decode";
      check label 1 "net.msg.union:decode-return";
      check label (n * n * m) "crypto.commutative.enc";
      check label (n * n * m) "crypto.commutative.dec")
    [ (2, 3); (3, 2); (4, 3) ]

(* ------------------------------------------------------------------ *)
(* Σₛ — secure sum over Shamir shares (receiver = auditor, k-of-n)     *)
(*   messages n(n−1) + k, rounds 2, polynomial evaluations n²          *)
(*   (each of n parties evaluates its polynomial at n points), one     *)
(*   interpolation at the receiver.                                    *)
(* ------------------------------------------------------------------ *)

let sum_p = Bignum.of_string "2305843009213693951"

let test_sum_costs () =
  List.iter
    (fun (n, k) ->
      let label = Printf.sprintf "sum n=%d k=%d" n k in
      let parties =
        List.init n (fun i -> { Smc.Sum.node = node i; value = bn (100 + i) })
      in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Sum.run ~net
                 ~rng:(Prng.create ~seed:(n + k))
                 ~p:sum_p ~k ~receiver:Net.Node_id.Auditor parties))
      in
      check label ((n * (n - 1)) + k) "net.msgs";
      check label 2 "net.rounds";
      check label 2 "net.rounds.sum";
      check label (n * (n - 1)) "net.msg.sum:share";
      check label k "net.msg.sum:aggregate";
      check label (n * n) "crypto.shamir.eval";
      check label 1 "crypto.shamir.interpolate")
    [ (2, 2); (3, 2); (4, 3); (5, 5) ]

(* ------------------------------------------------------------------ *)
(* Σₛ (TTP-coordinated) — Paillier cost accounting                     *)
(*   messages n+1, rounds 2, modexps n+1: the closed-form encryption   *)
(*   costs ONE modexp per party (the r^n blinding; the g^m factor is   *)
(*   the closed form 1+m·n), plus one for the receiver's decryption.   *)
(* ------------------------------------------------------------------ *)

let test_sum_ttp_paillier_costs () =
  (* Key generation churns counters; build it outside the measured
     window. *)
  let public, secret =
    Crypto.Paillier.generate (Prng.create ~seed:2025) ~bits:128
  in
  List.iter
    (fun n ->
      let label = Printf.sprintf "ttp sum n=%d" n in
      let parties =
        List.init n (fun i -> { Smc.Sum.node = node i; value = bn (10 + i) })
      in
      let _ =
        measured (fun net ->
            ignore
              (Smc.Sum.run_ttp_coordinated ~net
                 ~rng:(Prng.create ~seed:n)
                 ~public ~secret ~coordinator:(Net.Node_id.Ttp "sum")
                 ~receiver:Net.Node_id.Auditor parties))
      in
      check label (n + 1) "net.msgs";
      check label 2 "net.rounds";
      check label n "net.msg.sum:paillier-ct";
      check label 1 "net.msg.sum:paillier-total";
      check label (n - 1) "crypto.paillier.add";
      check label (n + 1) "crypto.modexp")
    [ 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Montgomery context cache: interleaved moduli cost O(#moduli)        *)
(* context creations, not O(#calls)                                    *)
(* ------------------------------------------------------------------ *)

let test_interleaved_moduli_ctx_creations () =
  (* Two parties exponentiating under two distinct moduli in strict
     alternation — the access pattern that defeated the previous
     one-slot cache (every call was a miss).  The LRU must create
     exactly one context per modulus. *)
  let m1 = Bignum.succ (Bignum.shift_left Bignum.one 89) in
  let m2 = Bignum.succ (Bignum.shift_left Bignum.one 107) in
  let e = Bignum.pred (Bignum.shift_left Bignum.one 64) in
  let b = bn 987654321 in
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  Modular.reset_mont_cache ();
  for _ = 1 to 20 do
    ignore (Modular.pow b e ~m:m1);
    ignore (Modular.pow b e ~m:m2)
  done;
  check "interleaved" 2 "crypto.mont.ctx_create";
  check "interleaved" 2 "crypto.mont.cache_miss";
  check "interleaved" 38 "crypto.mont.cache_hit"

(* ------------------------------------------------------------------ *)
(* Phase spans: every protocol run leaves its phase structure behind   *)
(* ------------------------------------------------------------------ *)

let test_protocol_spans () =
  let _ =
    measured (fun net ->
        ignore
          (Smc.Set_intersection.run ~net ~scheme:(xor_scheme 31)
             ~receiver:(node 0)
             (intersection_parties ~n:3 ~m:2)))
  in
  let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
    [ "smc.intersection"; "smc.intersection.transform";
      "smc.intersection.exchange"; "smc.intersection.collect";
      "smc.intersection.reveal"
    ];
  (* Root span duration equals the protocol's virtual-time extent:
     with the default 1 ms link latency, every round advances the clock
     by 1 ms and the n=3 run takes 3 rounds. *)
  let root =
    List.find (fun s -> s.Obs.Trace.name = "smc.intersection") (Obs.Trace.spans ())
  in
  Alcotest.(check int) "root depth" 0 root.Obs.Trace.depth;
  Alcotest.(check (float 1e-9)) "root duration = 3 rounds" 3.0
    root.Obs.Trace.duration_ms

(* ------------------------------------------------------------------ *)
(* Continuous deltas — the incremental engine's cost model             *)
(*   insert-only delta (all-local clauses): ZERO new SMC messages —    *)
(*   the one record is judged at its homes and the cached sets grow;   *)
(*   re-blind fallback (a cross clause): exactly one clause's §3       *)
(*   closed form — 1 negotiate + 2 cross-column + 1 cross-result,      *)
(*   3 query rounds.                                                   *)
(* ------------------------------------------------------------------ *)

let paper_row ~time ~id ~c1 =
  let d = Dla.Attribute.defined and u = Dla.Attribute.undefined in
  [ (d "time", Dla.Value.Time time); (d "id", Dla.Value.Str id);
    (d "protocl", Dla.Value.Str "UDP"); (d "tid", Dla.Value.Str "T1100265");
    (u 1, Dla.Value.Int c1); (u 2, Dla.Value.Money 500);
    (u 3, Dla.Value.Str "sig")
  ]

(* A populated cluster with one standing criterion; returns the submit
   function so the test can reset metrics between registration (which
   pays the initial warm-up) and the measured streaming commit. *)
let continuous_setup ~seed criteria =
  let cluster = Dla.Cluster.create ~seed Dla.Fragmentation.paper_partition in
  let ticket =
    Dla.Cluster.issue_ticket cluster ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Dla.Ticket.Read; Dla.Ticket.Write ] ~ttl:3600
  in
  let submit attrs =
    match
      Dla.Cluster.to_result
        (Dla.Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
           ~attributes:attrs)
    with
    | Ok glsn -> glsn
    | Error e -> Alcotest.failf "submit: %s" e
  in
  ignore (submit (paper_row ~time:1000 ~id:"U1" ~c1:40));
  ignore (submit (paper_row ~time:1060 ~id:"U2" ~c1:10));
  let registry = Dla.Continuous.Registry.create cluster in
  let engine = Dla.Continuous.Incremental.create registry in
  (match
     Dla.Continuous.Incremental.register engine (Dla.Auditor_engine.Text criteria)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "register: %s" (Dla.Audit_error.to_string e));
  submit

let test_delta_insert_zero_smc_messages () =
  List.iter
    (fun (criteria, clauses, rows, matches) ->
      let submit = continuous_setup ~seed:11 criteria in
      Obs.Metrics.reset ();
      Obs.Trace.reset ();
      List.iter (fun row -> ignore (submit row)) rows;
      let name = "insert delta " ^ criteria in
      check name (clauses * List.length rows) "audit.delta.insert";
      check name 0 "audit.delta.reblind";
      check name 0 "audit.delta.rebuild";
      check name matches "audit.delta.verdict_changed";
      check name 0 "net.msg.query:negotiate";
      check name 0 "net.msg.query:cross-column";
      check name 0 "net.msg.query:cross-result";
      check name 0 "net.msg.query:local-result";
      check name 0 "net.rounds.query";
      check name 0 "net.msg.intersection:relay";
      check name 0 "net.msg.intersection:collect";
      check name 0 "crypto.commutative.enc")
    [ (* C1 > 30 homes at P3, time >= 0 at P0: two clauses, both local. *)
      ({|C1 > 30 && time >= 0|}, 2, [ paper_row ~time:1200 ~id:"U1" ~c1:55 ], 1);
      (* The same two homes in one disjunctive clause: one insert per
         commit, and the row joins the verdict when either atom holds. *)
      ( {|C1 > 30 || time >= 1100|},
        1,
        [ paper_row ~time:1200 ~id:"U1" ~c1:55;
          paper_row ~time:1200 ~id:"U2" ~c1:10;
          paper_row ~time:1050 ~id:"U3" ~c1:55;
          paper_row ~time:1050 ~id:"U1" ~c1:10
        ],
        3 )
    ]

let test_delta_reblind_one_clause_closed_form () =
  (* C2 = C3 crosses P1 and P2: the single clause cannot absorb one row
     into an already-blinded column comparison, so the commit re-blinds
     exactly that clause. *)
  let submit = continuous_setup ~seed:12 {|C2 = C3|} in
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  ignore (submit (paper_row ~time:1200 ~id:"U3" ~c1:5));
  check "reblind delta" 1 "audit.delta.reblind";
  check "reblind delta" 0 "audit.delta.insert";
  check "reblind delta" 0 "audit.delta.rebuild";
  check "reblind delta" 1 "net.msg.query:negotiate";
  check "reblind delta" 2 "net.msg.query:cross-column";
  check "reblind delta" 1 "net.msg.query:cross-result";
  check "reblind delta" 3 "net.rounds.query";
  check "reblind delta" 0 "net.msg.intersection:relay";
  check "reblind delta" 0 "crypto.commutative.enc"

(* A clause span reads the clock of the cluster it runs on, even when
   another cluster's audit ran last: two paper clusters, the busier one
   500 ms ahead, and the other's clause warmed outside any audit — first
   by a continuous engine's registration, then directly. *)
let test_clause_span_reads_its_cluster_clock () =
  let b, _ = Workload.Paper_example.build ~seed:2 () in
  let a, _ = Workload.Paper_example.build ~seed:1 () in
  Net.Network.charge_wait_ms (Dla.Cluster.net a) 500.0;
  let audit_a () =
    match
      Dla.Auditor_engine.run a ~auditor:Net.Node_id.Auditor
        (Dla.Auditor_engine.Text {|C1 > 30|})
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "audit: %s" (Dla.Audit_error.to_string e)
  in
  let clock_b () = Net.Network.virtual_time_ms (Dla.Cluster.net b) in
  let check_clause_span label warm =
    audit_a ();
    Obs.Trace.reset ();
    let start = clock_b () in
    warm ();
    match
      List.filter
        (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = "executor.clause")
        (Obs.Trace.spans ())
    with
    | [ s ] ->
      Alcotest.(check (float 1e-9)) (label ^ " start") start s.Obs.Trace.start_ms;
      Alcotest.(check (float 1e-9)) (label ^ " duration") (clock_b () -. start)
        s.Obs.Trace.duration_ms;
      Alcotest.(check bool) (label ^ " clock moved") true (clock_b () > start)
    | spans ->
      Alcotest.failf "%s: expected 1 clause span, got %d" label
        (List.length spans)
  in
  let criteria = {|C2 = C3|} in
  check_clause_span "registration" (fun () ->
      let registry = Dla.Continuous.Registry.create b in
      let engine = Dla.Continuous.Incremental.create registry in
      match
        Dla.Continuous.Incremental.register engine
          (Dla.Auditor_engine.Text criteria)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "register: %s" (Dla.Audit_error.to_string e));
  let clause =
    match
      Dla.Planner.plan (Dla.Cluster.fragmentation b)
        (Dla.Query.normalize (Result.get_ok (Dla.Query.parse criteria)))
    with
    | Ok { Dla.Planner.clauses = [ clause ]; _ } -> clause
    | _ -> Alcotest.fail "C2 = C3 plans to one clause"
  in
  check_clause_span "warm_clause" (fun () ->
      Dla.Executor.warm_clause b ~cache:(Dla.Executor.cache_create ()) clause)

(* ------------------------------------------------------------------ *)
(* Scatter-gather — sharded audits                                     *)
(*   fabric messages 2·S for S > 1 (one scatter + one gather per       *)
(*   shard), 0 for the single-shard bypass, which pays exactly the     *)
(*   unsharded session's SMC bill.                                     *)
(* ------------------------------------------------------------------ *)

let fleet_rows =
  [ (1000, "U1", 40); (1060, "U2", 10); (1200, "U3", 55);
    (1300, "U4", 5); (1400, "U5", 31); (1500, "U6", 90)
  ]

let fleet_with_rows ~seed ~shards =
  let fleet =
    Dla.Sharding.create ~seed ~shards Dla.Fragmentation.paper_partition
  in
  List.iteri
    (fun i (time, id, c1) ->
      match
        Dla.Sharding.submit fleet
          ~origin:(Net.Node_id.User (i + 1))
          ~attributes:(paper_row ~time ~id ~c1)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit: %s" e)
    fleet_rows;
  fleet

(* Completed fan-out spans in completion order (children first):
   everything the scatter-gather opens, plus the session span each
   shard's batched run nests inside its shard.audit.<name> span. *)
let fanout_spans () =
  List.filter_map
    (fun (s : Obs.Trace.span) ->
      if
        String.starts_with ~prefix:"shard." s.Obs.Trace.name
        || s.Obs.Trace.name = "session.audit"
      then Some s.Obs.Trace.name
      else None)
    (Obs.Trace.spans ())

(* Each shard.audit.<name> span reads its own shard's clock, so its
   interval contains that of every span nested in it.  Spans complete
   children first: the spans nested in one are the run of deeper spans
   completed just before it. *)
let check_shard_spans_contain label =
  let spans = Array.of_list (Obs.Trace.spans ()) in
  let stop (s : Obs.Trace.span) = s.Obs.Trace.start_ms +. s.Obs.Trace.duration_ms in
  Array.iteri
    (fun i (s : Obs.Trace.span) ->
      if String.starts_with ~prefix:"shard.audit." s.Obs.Trace.name then begin
        let rec nested j acc =
          if j >= 0 && spans.(j).Obs.Trace.depth > s.Obs.Trace.depth then
            nested (j - 1) (spans.(j) :: acc)
          else acc
        in
        let inner = nested (i - 1) [] in
        if inner = [] then
          Alcotest.failf "%s: %s has no nested span" label s.Obs.Trace.name;
        List.iter
          (fun (c : Obs.Trace.span) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s [%g, %g] contains %s [%g, %g]" label
                 s.Obs.Trace.name s.Obs.Trace.start_ms (stop s) c.Obs.Trace.name
                 c.Obs.Trace.start_ms (stop c))
              true
              (c.Obs.Trace.start_ms >= s.Obs.Trace.start_ms -. 1e-9
              && stop c <= stop s +. 1e-9))
          inner
      end)
    spans

let test_scatter_gather_closed_form () =
  (* One scatter-gather costs exactly one Scatter and one Gather fabric
     message per shard: audit.cross_shard_msgs = 2·S, and every shard's
     scatter/gather counter ticks exactly once — for a single audit, a
     batched session and a Byzantine-tolerant audit alike.  The spans
     pin the fan-out order: scatter, each shard's audit in layout order,
     then the gather; each shard's audit span contains what runs in
     it. *)
  let check_fanout label shards =
    check label (2 * shards) "audit.cross_shard_msgs";
    for i = 0 to shards - 1 do
      check label 1 (Printf.sprintf "shard.scatter.shard%d" i);
      check label 1 (Printf.sprintf "shard.gather.shard%d" i)
    done
  in
  let per_shard shards f = List.concat (List.init shards f) in
  List.iter
    (fun shards ->
      let label = Printf.sprintf "scatter-gather S=%d" shards in
      let fleet = fleet_with_rows ~seed:21 ~shards in
      Obs.Metrics.reset ();
      Obs.Trace.reset ();
      let audit =
        match
          Dla.Sharding.audit fleet ~auditor:Net.Node_id.Auditor
            (Dla.Auditor_engine.Text {|C1 > 30|})
        with
        | Ok a -> a
        | Error e -> Alcotest.failf "audit: %s" (Dla.Audit_error.to_string e)
      in
      Alcotest.(check int)
        (label ^ " result field")
        (2 * shards) audit.Dla.Sharding.cross_shard_msgs;
      check_fanout label shards;
      Alcotest.(check (list string))
        (label ^ " audit spans")
        ("shard.scatter"
         :: per_shard shards (fun i -> [ Printf.sprintf "shard.audit.shard%d" i ])
        @ [ "shard.gather" ])
        (fanout_spans ());
      check_shard_spans_contain label;
      let label = Printf.sprintf "scatter-gather session S=%d" shards in
      let batch =
        List.map
          (fun s ->
            match Dla.Query.parse s with
            | Ok q -> q
            | Error e -> Alcotest.fail e)
          [ {|C1 > 30|}; {|id = "U1"|} ]
      in
      Obs.Metrics.reset ();
      Obs.Trace.reset ();
      let session =
        match
          Dla.Sharding.run_session fleet ~auditor:Net.Node_id.Auditor batch
        with
        | Ok s -> s
        | Error e ->
          Alcotest.failf "run_session: %s" (Dla.Audit_error.to_string e)
      in
      Alcotest.(check int)
        (label ^ " result field")
        (2 * shards) session.Dla.Sharding.cross_shard_msgs;
      check_fanout label shards;
      Alcotest.(check (list string))
        (label ^ " spans")
        ("shard.scatter"
         :: per_shard shards (fun i ->
                [ "session.audit"; Printf.sprintf "shard.audit.shard%d" i ])
        @ [ "shard.gather" ])
        (fanout_spans ());
      check_shard_spans_contain label;
      let label = Printf.sprintf "scatter-gather byzantine S=%d" shards in
      Obs.Metrics.reset ();
      Obs.Trace.reset ();
      let byzantine =
        match
          Dla.Sharding.byzantine_audit fleet ~auditor:Net.Node_id.Auditor
            (List.hd batch)
        with
        | Ok b -> b
        | Error e ->
          Alcotest.failf "byzantine_audit: %s" (Dla.Audit_error.to_string e)
      in
      Alcotest.(check int)
        (label ^ " result field")
        (2 * shards) byzantine.Dla.Sharding.cross_shard_msgs;
      check_fanout label shards;
      Alcotest.(check (list string))
        (label ^ " spans")
        ("shard.scatter"
         :: per_shard shards (fun i -> [ Printf.sprintf "shard.audit.shard%d" i ])
        @ [ "shard.gather" ])
        (fanout_spans ());
      check_shard_spans_contain label)
    [ 2; 3; 4 ]

let test_single_shard_batch_zero_extra_smc () =
  (* An all-local batch on a 1-shard fleet takes the bypass: zero
     fabric traffic, and the session's SMC bill (messages, bytes,
     rounds) equals the unsharded Audit_session.run on an identically
     built and populated cluster. *)
  let seed = 23 in
  let batch =
    List.map
      (fun s ->
        match Dla.Query.parse s with
        | Ok q -> q
        | Error e -> Alcotest.fail e)
      [ {|protocl = "UDP"|}; {|C1 > 30|} ]
  in
  (* Unsharded reference, mirroring the fleet's construction: same
     cluster/net seeds and the same ingest-ticket scheme. *)
  let cluster =
    Dla.Cluster.create ~seed
      ~net:(Net.Network.of_config (Net.Config.make ~seed ()))
      Dla.Fragmentation.paper_partition
  in
  List.iteri
    (fun i (time, id, c1) ->
      let origin = Net.Node_id.User (i + 1) in
      let ticket =
        Dla.Cluster.issue_ticket cluster
          ~id:(Printf.sprintf "shard-ingest:%s" (Net.Node_id.to_string origin))
          ~principal:origin
          ~rights:[ Dla.Ticket.Read; Dla.Ticket.Write ]
          ~ttl:10_000_000
      in
      match
        Dla.Cluster.to_result
          (Dla.Cluster.submit cluster ~ticket ~origin
             ~attributes:(paper_row ~time ~id ~c1))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit: %s" e)
    fleet_rows;
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  let reference =
    match Dla.Audit_session.run cluster ~auditor:Net.Node_id.Auditor batch with
    | Ok s -> s
    | Error e -> Alcotest.failf "session: %s" (Dla.Audit_error.to_string e)
  in
  let fleet = fleet_with_rows ~seed ~shards:1 in
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  let session =
    match Dla.Sharding.run_session fleet ~auditor:Net.Node_id.Auditor batch with
    | Ok s -> s
    | Error e -> Alcotest.failf "run_session: %s" (Dla.Audit_error.to_string e)
  in
  Alcotest.(check int)
    "1-shard batch: zero fabric messages" 0
    session.Dla.Sharding.cross_shard_msgs;
  check "1-shard batch" 0 "audit.cross_shard_msgs";
  let merged = session.Dla.Sharding.merged in
  Alcotest.(check int)
    "1-shard batch: same SMC messages as unsharded"
    reference.Dla.Audit_session.messages merged.Dla.Audit_session.messages;
  Alcotest.(check int)
    "1-shard batch: same bytes" reference.Dla.Audit_session.bytes
    merged.Dla.Audit_session.bytes;
  Alcotest.(check int)
    "1-shard batch: same rounds" reference.Dla.Audit_session.rounds
    merged.Dla.Audit_session.rounds;
  Alcotest.(check int)
    "1-shard batch: same matches"
    (List.fold_left
       (fun acc e -> acc + e.Dla.Audit_session.count)
       0 reference.Dla.Audit_session.entries)
    (List.fold_left
       (fun acc e -> acc + e.Dla.Audit_session.count)
       0 merged.Dla.Audit_session.entries)

(* Every fleet operation on a 1-shard fleet is the unsharded call: no
   fabric message, and no shard.* counter or span — the gather span
   included. *)
let test_single_shard_no_fanout () =
  let fleet = fleet_with_rows ~seed:21 ~shards:1 in
  let q =
    match Dla.Query.parse {|C1 > 30|} with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let no_fanout label run =
    Obs.Metrics.reset ();
    Obs.Trace.reset ();
    match run () with
    | Error e -> Alcotest.failf "%s: %s" label (Dla.Audit_error.to_string e)
    | Ok cross_shard_msgs ->
      Alcotest.(check int) (label ^ " result field") 0 cross_shard_msgs;
      check label 0 "audit.cross_shard_msgs";
      Alcotest.(check (list string))
        (label ^ " shard counters") []
        (List.map fst (Obs.Metrics.counters_prefixed ~prefix:"shard." ()));
      Alcotest.(check (list string))
        (label ^ " shard spans") []
        (List.filter (String.starts_with ~prefix:"shard.") (fanout_spans ()))
  in
  let auditor = Net.Node_id.Auditor in
  no_fanout "audit" (fun () ->
      Result.map
        (fun (a : Dla.Sharding.audit) -> a.Dla.Sharding.cross_shard_msgs)
        (Dla.Sharding.audit fleet ~auditor (Dla.Auditor_engine.Criteria q)));
  no_fanout "run_session" (fun () ->
      Result.map
        (fun (s : Dla.Sharding.session) -> s.Dla.Sharding.cross_shard_msgs)
        (Dla.Sharding.run_session fleet ~auditor [ q ]));
  no_fanout "byzantine_audit" (fun () ->
      Result.map
        (fun (b : Dla.Sharding.byzantine) -> b.Dla.Sharding.cross_shard_msgs)
        (Dla.Sharding.byzantine_audit fleet ~auditor q))

let () =
  Alcotest.run "cost_model"
    [ ( "intersection",
        [ Alcotest.test_case "reactor knobs leave counts fixed" `Quick
            test_intersection_costs_reactor_invariant;
          Alcotest.test_case "message/round/enc counts" `Quick
            test_intersection_costs;
          Alcotest.test_case "scheme-agnostic counts" `Quick
            test_intersection_costs_scheme_agnostic
        ] );
      ( "equality",
        [ Alcotest.test_case "message/round/blind counts" `Quick
            test_equality_costs;
          Alcotest.test_case "mapping table message/round/blind counts"
            `Quick test_mapping_table_costs
        ] );
      ( "ranking",
        [ Alcotest.test_case "message/round/blind counts" `Quick
            test_ranking_costs
        ] );
      ( "union",
        [ Alcotest.test_case "message/round/enc/dec counts" `Quick
            test_union_costs
        ] );
      ( "sum",
        [ Alcotest.test_case "message/round/shamir counts" `Quick
            test_sum_costs;
          Alcotest.test_case "ttp paillier counts" `Quick
            test_sum_ttp_paillier_costs
        ] );
      ( "mont-cache",
        [ Alcotest.test_case "interleaved moduli" `Quick
            test_interleaved_moduli_ctx_creations
        ] );
      ( "spans",
        [ Alcotest.test_case "phase spans recorded" `Quick test_protocol_spans;
          Alcotest.test_case "clause spans read their cluster's clock" `Quick
            test_clause_span_reads_its_cluster_clock
        ] );
      ( "continuous-delta",
        [ Alcotest.test_case "insert-only delta costs zero SMC messages"
            `Quick test_delta_insert_zero_smc_messages;
          Alcotest.test_case "re-blind fallback pays one clause's closed form"
            `Quick test_delta_reblind_one_clause_closed_form
        ] );
      ( "sharding",
        [ Alcotest.test_case "scatter-gather costs 2S fabric messages"
            `Quick test_scatter_gather_closed_form;
          Alcotest.test_case "single-shard batch adds zero SMC messages"
            `Quick test_single_shard_batch_zero_extra_smc;
          Alcotest.test_case "single shard opens no fan-out" `Quick
            test_single_shard_no_fanout
        ] )
    ]
