(* Reactor runtime: the determinism contract of ISSUE 10.

   The claim under test — pipelined sessions, coalesced wire frames and
   a multi-domain compute pool are *observationally invisible*: at any
   (domains, max_pipeline_depth, coalesce) setting, a batched audit
   session returns byte-identical matching lists, per-participant
   transcripts and verdicts to the width-1, depth-1, frame-per-message
   engine, across all three Spec.Schedule network schedules.  Only
   wall-clock and the net.frame.* / pool.* / audit.pipeline.*
   accounting may move; the §3 logical counters (net.msgs, smc.*,
   crypto.modexp) must not.

   Seeds follow the shared conventions: QCHECK_SEED for generated
   batches, CHAOS_SEED for the network schedules. *)

open Dla
open Numtheory

let auditor = Net.Node_id.Auditor
let schedules = Spec.Schedule.suite ~seed:(Generators.chaos_seed ()) ()

(* Heavy-overlap batch in the style of the session suite: 8 criteria
   so the phase-1 reactor has clauses from several queries to
   interleave.  [C1 > C4] is deliberate: its homes {P0, P3} are
   disjoint from the {P1, P2} pair the other cross clauses occupy, so
   the batch contains genuinely independent TTP-bound work. *)
let overlapping_batch =
  [ {|C1 > 30|};
    {|C1 > 30 && C2 = C3|};
    {|protocl = "UDP"|};
    {|protocl = "UDP" && C1 > C4|};
    {|C2 = C3 && time >= 0|};
    {|time >= 0 && protocl = "UDP"|};
    {|tid != id|};
    {|tid != id && C1 > 30|}
  ]

(* Pohlig–Hellman conjunction: the multi-home ∩ₛ ring passes become
   modexp batches, i.e. real work for the domain pool.  Keyed off a
   fixed seed so every run draws the same scheme. *)
let ph_conjunction _rng = Generators.fresh_scheme 424242

(* One full observable outcome of a session: per-query matching lists
   plus the complete per-participant transcript (every ledger
   observation each protocol makes, with its span path). *)
type outcome = {
  matching : string list list;
  transcript : (string * string * string * string * string) list;
}

let session_outcome ?conjunction cluster criteria =
  let transcript = ref [] in
  let record (ev : Smc.Proto_util.wire_event) =
    transcript :=
      ( Net.Node_id.to_string ev.Smc.Proto_util.node,
        Net.Ledger.sensitivity_to_string ev.Smc.Proto_util.sensitivity,
        ev.Smc.Proto_util.tag,
        ev.Smc.Proto_util.value,
        String.concat "/" ev.Smc.Proto_util.phase )
      :: !transcript
  in
  let summary =
    Smc.Proto_util.with_transcript_hook record (fun () ->
        match
          Audit_session.run_strings cluster ?conjunction ~auditor criteria
        with
        | Ok s -> s
        | Error e -> Alcotest.fail (Audit_error.to_string e))
  in
  {
    matching =
      List.map
        (fun e -> List.map Glsn.to_string e.Audit_session.matching)
        summary.Audit_session.entries;
    transcript = List.rev !transcript;
  }

(* Run the same session at a given pool width over a given network
   config; the cluster is rebuilt each time so stored state is
   identical. *)
let run_at ?conjunction ~domains config criteria =
  let pool = Domain_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.with_pool pool (fun () ->
          let net = Net.Network.of_config config in
          let cluster, _ = Workload.Paper_example.build ~net () in
          session_outcome ?conjunction cluster criteria))

let check_outcomes_equal name reference other =
  Alcotest.(check (list (list string)))
    (name ^ ": matching") reference.matching other.matching;
  Alcotest.(check int)
    (name ^ ": transcript length")
    (List.length reference.transcript)
    (List.length other.transcript);
  Alcotest.(check bool) (name ^ ": transcript bytes") true
    (reference.transcript = other.transcript)

(* ------------------------------------------------------------------ *)
(* Differential: domains x coalesce x schedule                         *)
(* ------------------------------------------------------------------ *)

(* Pooled modexp, pipelined phase 1 and frame coalescing vs the plain
   engine, on the clean network: every observable byte must agree. *)
let test_runtime_invisible_clean () =
  let base = Net.Config.make () in
  let reference =
    run_at ~conjunction:ph_conjunction ~domains:1 base overlapping_batch
  in
  List.iter
    (fun (name, domains, coalesce) ->
      let config = Net.Config.make ~domains ~coalesce () in
      let outcome =
        run_at ~conjunction:ph_conjunction ~domains config overlapping_batch
      in
      check_outcomes_equal name reference outcome)
    [ ("domains=2", 2, false); ("domains=4", 4, false);
      ("domains=1 coalesce", 1, true); ("domains=4 coalesce", 4, true)
    ]

(* Same invariance across the three seeded network schedules (uniform /
   skewed / lossy), under the default XOR-pad conjunction: timing and
   loss patterns must not interact with the runtime knobs either. *)
let test_runtime_invisible_all_schedules () =
  List.iter
    (fun sched ->
      let name = Spec.Schedule.name sched in
      let reference =
        Spec.Schedule.run sched (fun net ->
            let cluster, _ = Workload.Paper_example.build ~net () in
            session_outcome cluster overlapping_batch)
      in
      List.iter
        (fun domains ->
          let pool = Domain_pool.create ~domains in
          Fun.protect
            ~finally:(fun () -> Domain_pool.shutdown pool)
            (fun () ->
              Domain_pool.with_pool pool (fun () ->
                  let outcome =
                    Spec.Schedule.run sched (fun net ->
                        let cluster, _ =
                          Workload.Paper_example.build ~net ()
                        in
                        session_outcome cluster overlapping_batch)
                  in
                  check_outcomes_equal
                    (Printf.sprintf "%s domains=%d" name domains)
                    reference outcome)))
        [ 1; 2; 4 ])
    schedules

(* The conjunction scheme is an implementation detail of ∩ₛ: swapping
   the XOR pad for Pohlig–Hellman must not change any answer. *)
let test_conjunction_scheme_generic () =
  let config = Net.Config.make () in
  let xor = run_at ~domains:1 config overlapping_batch in
  let ph =
    run_at ~conjunction:ph_conjunction ~domains:1 config overlapping_batch
  in
  Alcotest.(check (list (list string)))
    "PH conjunction = XOR conjunction" xor.matching ph.matching

(* Generated batches: session answers are invariant under the pool
   width.  Randomly drawn paper-schema queries (duplicated to force
   sharing), compared entry-wise across domains in {1, 2, 4}. *)
let batch_gen =
  let open QCheck.Gen in
  list_size (int_range 2 4) Generators.paper_query_gen

let prop_domains_invariant =
  QCheck.Test.make ~name:"session outcome invariant in pool width" ~count:25
    (QCheck.make
       ~print:(fun qs -> String.concat " ; " (List.map Query.to_string qs))
       batch_gen)
    (fun queries ->
      let queries = queries @ queries in
      let run domains =
        let pool = Domain_pool.create ~domains in
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () ->
            Domain_pool.with_pool pool (fun () ->
                let cluster, _ = Workload.Paper_example.build () in
                match Audit_session.run cluster ~auditor queries with
                | Ok summary ->
                  Ok
                    (List.map
                       (fun e ->
                         List.map Glsn.to_string e.Audit_session.matching)
                       summary.Audit_session.entries)
                | Error e -> Error (Audit_error.to_string e)))
      in
      let reference = run 1 in
      if Result.is_error reference then QCheck.assume_fail ()
      else run 2 = reference && run 4 = reference)

(* ------------------------------------------------------------------ *)
(* Frame accounting pins                                               *)
(* ------------------------------------------------------------------ *)

(* With coalescing on, physical frames can only merge logical messages:
   net.frame.msgs tracks net.msgs exactly, net.frame.sends stays <=,
   and the §3 logical counters are byte-identical to the uncoalesced
   run. *)
let section_3_counters =
  [ "net.msgs"; "net.bytes"; "net.rounds"; "smc.blind.compare";
    "crypto.modexp"; "audit.cache_hit"
  ]

let test_frame_pins () =
  let counters config =
    Obs.Metrics.reset ();
    ignore (run_at ~domains:1 config overlapping_batch);
    List.map (fun c -> (c, Obs.Metrics.get c)) section_3_counters
    @ [ ("net.frame.sends", Obs.Metrics.get "net.frame.sends");
        ("net.frame.msgs", Obs.Metrics.get "net.frame.msgs");
        ("net.frame.coalesced", Obs.Metrics.get "net.frame.coalesced")
      ]
  in
  let plain = counters (Net.Config.make ()) in
  let coalesced = counters (Net.Config.make ~coalesce:true ()) in
  let get name alist = List.assoc name alist in
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "§3 counter %s unchanged by coalescing" c)
        (get c plain) (get c coalesced))
    section_3_counters;
  let msgs = get "net.msgs" coalesced in
  Alcotest.(check int) "frame.msgs = net.msgs" msgs
    (get "net.frame.msgs" coalesced);
  Alcotest.(check bool)
    (Printf.sprintf "frame.sends (%d) <= net.msgs (%d)"
       (get "net.frame.sends" coalesced) msgs)
    true
    (get "net.frame.sends" coalesced <= msgs);
  Alcotest.(check int) "sends + coalesced = msgs" msgs
    (get "net.frame.sends" coalesced + get "net.frame.coalesced" coalesced);
  (* Off (the default): one frame per message, nothing rides. *)
  Alcotest.(check int) "coalesce off: frame per message"
    (get "net.msgs" plain) (get "net.frame.sends" plain);
  Alcotest.(check int) "coalesce off: nothing coalesced" 0
    (get "net.frame.coalesced" plain)

(* The accounting layer itself: within one round window, a second send
   to the same (src, dst) rides the open frame (no header re-paid); the
   round closes every window, so the next send opens a fresh frame.
   (The SMC protocols never send twice on one link inside a window —
   the pins above show coalescing is a no-op there — so the engagement
   contract is pinned directly.) *)
let test_frames_do_coalesce () =
  Obs.Metrics.reset ();
  let net = Net.Network.of_config (Net.Config.make ~coalesce:true ()) in
  let a = Net.Node_id.Dla 0 and b = Net.Node_id.Dla 1 and c = Net.Node_id.Dla 2 in
  let send src label bytes =
    match Net.Network.send net ~src ~dst:b ~label ~bytes with
    | Net.Network.Delivered -> ()
    | Net.Network.Dropped r -> Alcotest.failf "dropped: %s" r
  in
  send a "alpha" 10;
  send a "beta" 5;
  (* rides a's open frame *)
  send c "gamma" 1;
  (* different source: its own frame *)
  Net.Network.round net;
  send a "delta" 1;
  (* new window, new frame *)
  Alcotest.(check int) "frames opened" 3 (Obs.Metrics.get "net.frame.sends");
  Alcotest.(check int) "one message rode" 1
    (Obs.Metrics.get "net.frame.coalesced");
  Alcotest.(check int) "all messages framed" 4
    (Obs.Metrics.get "net.frame.msgs");
  (* Header paid once per frame: (10+8) + 5 + (1+8) + (1+8). *)
  Alcotest.(check int) "frame bytes" 41 (Obs.Metrics.get "net.frame.bytes");
  let stats = Net.Network.stats net in
  Alcotest.(check int) "stats frames" 3 stats.Net.Network.frames;
  Alcotest.(check int) "stats frame msgs" 4 stats.Net.Network.frame_msgs;
  Alcotest.(check int) "stats frame bytes" 41 stats.Net.Network.frame_bytes

(* ------------------------------------------------------------------ *)
(* Pipeline scheduler                                                  *)
(* ------------------------------------------------------------------ *)

let submit p resources duration_ms =
  Net.Runtime.Pipeline.submit p ~resources ~duration_ms

let test_pipeline_overlaps_disjoint () =
  let p = Net.Runtime.Pipeline.create ~max_depth:4 () in
  submit p [ "P0" ] 10.0;
  submit p [ "P1" ] 10.0;
  submit p [ "P2" ] 10.0;
  let r = Net.Runtime.Pipeline.report p in
  Alcotest.(check int) "jobs" 3 r.Net.Runtime.Pipeline.jobs;
  Alcotest.(check (float 1e-9)) "sequential" 30.0
    r.Net.Runtime.Pipeline.sequential_ms;
  (* Disjoint resources, depth 4: all three run at t=0. *)
  Alcotest.(check (float 1e-9)) "pipelined" 10.0
    r.Net.Runtime.Pipeline.pipelined_ms;
  Alcotest.(check int) "peak depth" 3 r.Net.Runtime.Pipeline.peak_depth

let test_pipeline_serializes_conflicts () =
  let p = Net.Runtime.Pipeline.create ~max_depth:4 () in
  submit p [ "P0"; "P1" ] 10.0;
  submit p [ "P1"; "P2" ] 10.0;
  submit p [ "P0" ] 5.0;
  let r = Net.Runtime.Pipeline.report p in
  (* Job 2 waits on P1 (0→10 busy), job 3 waits on P0 likewise: the
     chain is 10 + 10 for the P1 conflict, with job 3 running 10→15
     inside job 2's window. *)
  Alcotest.(check (float 1e-9)) "makespan" 20.0
    r.Net.Runtime.Pipeline.pipelined_ms;
  Alcotest.(check int) "peak depth" 2 r.Net.Runtime.Pipeline.peak_depth

let test_pipeline_depth_cap () =
  let p = Net.Runtime.Pipeline.create ~max_depth:2 () in
  submit p [ "P0" ] 10.0;
  submit p [ "P1" ] 10.0;
  submit p [ "P2" ] 10.0;
  let r = Net.Runtime.Pipeline.report p in
  (* Three independent jobs but only two slots: the third starts when
     a slot frees at t=10. *)
  Alcotest.(check (float 1e-9)) "capped makespan" 20.0
    r.Net.Runtime.Pipeline.pipelined_ms;
  Alcotest.(check int) "depth never exceeds cap" 2
    r.Net.Runtime.Pipeline.peak_depth

let test_pipeline_depth_one_is_sequential () =
  let p = Net.Runtime.Pipeline.create ~max_depth:1 () in
  List.iter (fun d -> submit p [] d) [ 3.0; 4.0; 5.0 ];
  let r = Net.Runtime.Pipeline.report p in
  Alcotest.(check (float 1e-9)) "depth 1 = sequential clock"
    r.Net.Runtime.Pipeline.sequential_ms r.Net.Runtime.Pipeline.pipelined_ms

let test_pipeline_validation () =
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Runtime.Pipeline.create: max_depth must be >= 1")
    (fun () -> ignore (Net.Runtime.Pipeline.create ~max_depth:0 ()));
  let p = Net.Runtime.Pipeline.create () in
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Runtime.Pipeline.submit: bad duration") (fun () ->
      submit p [] (-1.0))

(* The session's pipeline report: clauses pipeline (makespan < sum)
   exactly because the batch has resource-disjoint clauses. *)
let test_session_pipeline_report () =
  let net = Net.Network.of_config (Net.Config.make ~max_pipeline_depth:4 ()) in
  let cluster, _ = Workload.Paper_example.build ~net () in
  match Audit_session.run_strings cluster ~auditor overlapping_batch with
  | Error e -> Alcotest.fail (Audit_error.to_string e)
  | Ok summary ->
    let p = summary.Audit_session.pipeline in
    Alcotest.(check int) "one job per unique clause"
      summary.Audit_session.unique_clauses p.Net.Runtime.Pipeline.jobs;
    Alcotest.(check bool) "pipelining helped" true
      (p.Net.Runtime.Pipeline.pipelined_ms
      < p.Net.Runtime.Pipeline.sequential_ms);
    Alcotest.(check bool) "depth respected" true
      (p.Net.Runtime.Pipeline.peak_depth <= 4);
    Alcotest.(check bool) "overlap reached" true
      (p.Net.Runtime.Pipeline.peak_depth >= 2)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_map_list_identity () =
  let xs = List.init 100 (fun i -> i) in
  let f = List.map (fun x -> (x * 2) + 1) in
  let expected = f xs in
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          Alcotest.(check (list int))
            (Printf.sprintf "width %d" domains)
            expected
            (Domain_pool.map_list pool ~min_chunk:4 f xs)))
    [ 1; 2; 3; 4 ]

let test_pool_small_batch_inline () =
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Obs.Metrics.reset ();
      let xs = List.init 7 (fun i -> i) in
      ignore (Domain_pool.map_list pool ~min_chunk:4 (List.map succ) xs);
      Alcotest.(check int) "small batches stay inline" 1
        (Obs.Metrics.get "pool.inline");
      Alcotest.(check int) "no farmed batch" 0 (Obs.Metrics.get "pool.batches"))

let test_pool_exception_propagates () =
  let pool = Domain_pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let xs = List.init 60 (fun i -> i) in
      Alcotest.check_raises "worker exception re-raised on caller"
        (Failure "chunk blew up") (fun () ->
          ignore
            (Domain_pool.map_list pool ~min_chunk:4
               (fun chunk ->
                 if List.exists (fun x -> x > 40) chunk then
                   failwith "chunk blew up"
                 else chunk)
               xs));
      (* The caller's own chunk fails while the farmed ones still run:
         the caller joins them all before it re-raises, so no chunk
         outlives the call. *)
      let head_failed = Atomic.make false and finished = Atomic.make 0 in
      Alcotest.check_raises "caller's chunk re-raised after the join"
        (Failure "head blew up") (fun () ->
          ignore
            (Domain_pool.map_list pool ~min_chunk:4
               (fun chunk ->
                 if List.mem 0 chunk then begin
                   Atomic.set head_failed true;
                   failwith "head blew up"
                 end
                 else begin
                   while not (Atomic.get head_failed) do
                     Domain.cpu_relax ()
                   done;
                   for _ = 1 to 200_000 do
                     Domain.cpu_relax ()
                   done;
                   Atomic.incr finished;
                   chunk
                 end)
               xs));
      Alcotest.(check int) "both farmed chunks finished" 2
        (Atomic.get finished))

let test_pool_validation () =
  Alcotest.check_raises "width 0"
    (Invalid_argument "Domain_pool.create: domains must be >= 1") (fun () ->
      ignore (Domain_pool.create ~domains:0))

(* pow_many through an ambient multi-domain pool: value-identical to
   the inline path, §3 op counters advance identically, and the pool
   counters record the farming. *)
let test_pow_many_pooled_identical () =
  let p = Bignum.of_string "170141183460469231731687303715884105727" in
  let e = Bignum.of_string "65537" in
  let bs =
    List.init 80 (fun i -> Bignum.of_int ((i * 7919) + 3))
  in
  Obs.Metrics.reset ();
  let inline_result = Modular.pow_many bs e ~m:p in
  let inline_modexp = Obs.Metrics.get "crypto.modexp" in
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Obs.Metrics.reset ();
      let pooled_result =
        Domain_pool.with_pool pool (fun () -> Modular.pow_many bs e ~m:p)
      in
      Alcotest.(check bool) "pooled = inline" true
        (List.for_all2 Bignum.equal inline_result pooled_result);
      Alcotest.(check int) "crypto.modexp identical" inline_modexp
        (Obs.Metrics.get "crypto.modexp");
      Alcotest.(check bool) "farming recorded" true
        (Obs.Metrics.get "pool.batches" > 0);
      Alcotest.(check int) "high-water width" 4
        (Obs.Metrics.get "pool.domains.max"))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pipeline"
    [ ( "differential",
        Alcotest.test_case "runtime invisible (clean net)" `Quick
          test_runtime_invisible_clean
        :: Alcotest.test_case "runtime invisible (all schedules)" `Quick
             test_runtime_invisible_all_schedules
        :: Alcotest.test_case "conjunction scheme-generic" `Quick
             test_conjunction_scheme_generic
        :: qt [ prop_domains_invariant ] );
      ( "frames",
        [ Alcotest.test_case "accounting pins" `Quick test_frame_pins;
          Alcotest.test_case "coalescing engages" `Quick
            test_frames_do_coalesce
        ] );
      ( "pipeline",
        [ Alcotest.test_case "disjoint jobs overlap" `Quick
            test_pipeline_overlaps_disjoint;
          Alcotest.test_case "conflicts serialize" `Quick
            test_pipeline_serializes_conflicts;
          Alcotest.test_case "depth cap" `Quick test_pipeline_depth_cap;
          Alcotest.test_case "depth 1 sequential" `Quick
            test_pipeline_depth_one_is_sequential;
          Alcotest.test_case "validation" `Quick test_pipeline_validation;
          Alcotest.test_case "session report" `Quick
            test_session_pipeline_report
        ] );
      ( "domain-pool",
        [ Alcotest.test_case "map_list identity" `Quick
            test_pool_map_list_identity;
          Alcotest.test_case "small batch inline" `Quick
            test_pool_small_batch_inline;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "pow_many pooled identical" `Quick
            test_pow_many_pooled_identical
        ] )
    ]
