(* session_ph: closed loop of Audit_session.run over the P18
   eight-criteria batch, with a Pohlig–Hellman-256 conjunction, on a
   100-row single cluster.

   Crypto-dominated: every session pays ~1,400 modexps in the ∩ₛ ring
   passes, so it exercises numtheory, crypto and smc, plus the
   session's clause dedup and glsn-set cache.  Sharding is bypassed. *)

open Dla
open Util

let name = "session_ph"
let cluster_seed = 31
let ph_seed = 71
let ph_bits = 256
let rows = 100
let warmup_ops = 2
let prefix_ops = 5  (* wire and heap metrics: the first sessions *)
(* p75 over the run: a run holds 30–50 sessions, too few for a higher
   percentile with ten samples beyond it *)
let tail = { Run.pct = 0.75; window = 0 }
let window_sessions = 2  (* throughput window: ~0.5 s *)

type state = {
  cluster : Cluster.t;
  params : Crypto.Pohlig_hellman.params;
  criteria : Query.t list;
}

(* Parameter generation is part of set-up: a deployment pays it once. *)
let build ~seed ~bits () =
  let params = Crypto.Pohlig_hellman.generate_params (Numtheory.Prng.create ~seed:ph_seed) ~bits in
  let cluster = Cluster.create ~seed:cluster_seed Fragmentation.paper_partition in
  let origin = Net.Node_id.User 1 in
  let ticket =
    Cluster.issue_ticket cluster ~id:"session" ~principal:origin
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86_400
  in
  for i = 0 to rows - 1 do
    match Cluster.to_result (Cluster.submit cluster ~ticket ~origin ~attributes:(Inputs.row ~seed i)) with
    | Ok _ -> ()
    | Error e -> failwith ("session_ph preload: " ^ e)
  done;
  { cluster; params; criteria = List.map Run.parse (Inputs.session_batch ~seed) }

let run (cfg : Run.config) : Results.result =
  let seed = cfg.Run.seed in
  (* Smoke runs use a smaller group: 256-bit parameter generation alone
     would take most of their budget. *)
  let bits = if cfg.Run.smoke then 128 else ph_bits in
  let st, setup_s, setup_meta = Run.repeated_setup cfg (build ~seed ~bits) in
  let conjunction rng = Crypto.Commutative.pohlig_hellman rng st.params in
  (* The data never changes, so every session must return exactly the
     oracle's entries. *)
  let records = Oracle.reassemble st.cluster (Cluster.all_glsns st.cluster) in
  let expected = List.map (Oracle.expected records Executor.Glsns) st.criteria in
  let correct = ref true and failed = ref 0 and attempted = ref 0 in
  let last_summary = ref None in
  let step ~op samples =
    incr attempted;
    match
      Measure.timed (fun () ->
          Span.with_span ~op "audit_session.run" (fun () ->
              Audit_session.run st.cluster ~conjunction ~auditor:Run.auditor st.criteria))
    with
    | Error _, _ -> incr failed
    | Ok s, ms ->
      Samples.add samples ms;
      last_summary := Some s;
      let got =
        List.map
          (fun e ->
            Oracle.of_answer ~count:e.Audit_session.count
              ~matching:e.Audit_session.matching)
          s.Audit_session.entries
      in
      if got <> expected then correct := false
  in
  let scratch = Samples.create () in
  for _ = 1 to warmup_ops do step ~op:(-1) scratch done;
  let lat = Samples.create () and lat_traced = Samples.create () in
  let prefix = Run.scale cfg prefix_ops in
  let loop =
    Run.measured cfg ~workload:name ~seconds:cfg.Run.seconds ~prefix ~window:window_sessions
      ~ops:(fun () -> !attempted - !failed) (fun ~traced i ->
        step ~op:i (if traced then lat_traced else lat))
  in
  let ops = loop.Run.steps in
  let meta =
    [ ("seed", Results.int seed); ("rows", Results.int rows); ("ph_bits", Results.int bits);
      ("warmup_ops", Results.int warmup_ops) ]
    @ setup_meta
    @ [ ("criteria", Obs.Json.List (List.map Results.str (Inputs.session_batch ~seed)));
      Run.tail_meta tail
    ]
    @ Run.loop_meta loop ~ops
  in
  if not cfg.Run.trace then
    { Results.workload = name; traced = false; correct = !correct; attempted = !attempted;
      failed = !failed;
      values =
        Run.end_to_end loop ~setup_s ~ops ~prefix_ops:prefix ~latencies:lat
          ~tail;
      meta }
  else begin
    let counts = Run.layer_counts loop ~ops in
    let traced_p50 = median (Samples.to_array lat_traced) in
    (* The session's own work: its wall time minus the same calls
       replayed one by one from outside, in back-to-back pairs so a
       drift of the host's speed cancels. *)
    let self_ms =
      median
        (Array.init 5 (fun _ ->
             let t0 = now () in
             ignore
               (Span.with_span ~op:(-1) "audit_session.run" (fun () ->
                    Audit_session.run st.cluster ~conjunction ~auditor:Run.auditor st.criteria));
             let session_ms = 1000.0 *. (now () -. t0) in
             session_ms -. Probe.replay_session st.cluster ~conjunction st.criteria))
    in
    let summary = Option.get !last_summary in
    let p = st.params.Crypto.Pohlig_hellman.p in
    (* A ring pass encrypts one clause's glsn set: about half the rows. *)
    let batch = rows / 2 in
    let pipeline = summary.Audit_session.pipeline in
    { Results.workload = name; traced = true; correct = !correct; attempted = !attempted;
      failed = !failed;
      values =
        counts
        @ Probe.numtheory ~m:p ~batch ~counts ~p50_ms:traced_p50
        @ Probe.intersection ~scheme:(fun () -> conjunction (Probe.rng ())) loop ~ops
            ~p50_ms:traced_p50
        @ [ ("crypto.blind_us_per_value", Probe.blind_us_per_value ~n:rows);
            ("net.send_us", Probe.send_us ());
            ("planner.parse_plan_us",
              Probe.parse_plan_us (Cluster.fragmentation st.cluster) (Inputs.session_batch ~seed));
            ("executor.clause_us", 1000.0 *. Span.median_ms "executor.warm_clause");
            ("session.self_ms", self_ms);
            ( "session.dedup_clause_ratio",
              ratio (float_of_int summary.Audit_session.dedup_clauses)
                (float_of_int
                   (summary.Audit_session.dedup_clauses + summary.Audit_session.unique_clauses)) );
            ( "session.model.pipeline_virtual_speedup",
              ratio pipeline.Net.Runtime.Pipeline.sequential_ms
                pipeline.Net.Runtime.Pipeline.pipelined_ms );
            ( "trace.overhead_pct",
              Run.overhead_pct ~untraced:(Samples.to_array lat) ~traced:(Samples.to_array lat_traced) )
          ];
      meta }
  end
