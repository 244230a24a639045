(* stream: writes beside standing reads.  A 2,000-row cluster carries
   three standing criteria on Continuous.Incremental (a local
   conjunction, a count-only criterion, a cross C2 = C3); the closed
   loop commits rows with Cluster.submit — whose commit hook brings
   every standing verdict up to date before it returns — and runs one
   on-demand Auditor_engine.run after every 10th commit.

   Each commit pays insert deltas plus one cross re-blind, so a
   write-path gain that costs delta maintenance or reads shows here.
   A commit's cost grows with the population, so the loop runs in
   episodes of 100 commits, each on a freshly built 2,000-row cluster
   (built aside: off the clocks and the counters).  Every episode then
   sees the same populations, however many of them a run fits in. *)

open Dla
open Util

let name = "stream"
let cluster_seed = 31
let preload_rows = 2_000
let read_every = 10
let episode_commits = 100
(* The first commits of the first episode are the warmup; the rest of
   it is the prefix the wire and heap metrics cover. *)
let warmup_commits = 10
(* p75 of every 100 commits (an episode's worth), median over them *)
let tail = { Run.pct = 0.75; window = episode_commits }

type state = {
  cluster : Cluster.t;
  ticket : Ticket.t;
  engine : Continuous.Incremental.t;
  standing : (Continuous.Registry.id * Executor.delivery * Query.t) list;
}

let origin = Net.Node_id.User 1

let preloaded ~seed ~rows =
  let cluster = Cluster.create ~seed:cluster_seed Fragmentation.paper_partition in
  let ticket =
    Cluster.issue_ticket cluster ~id:"stream" ~principal:origin
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86_400
  in
  for i = 0 to rows - 1 do
    match Cluster.to_result (Cluster.submit cluster ~ticket ~origin ~attributes:(Inputs.row ~seed i)) with
    | Ok _ -> ()
    | Error e -> failwith ("stream preload: " ^ e)
  done;
  (cluster, ticket)

let build ~seed ~rows () =
  let cluster, ticket = preloaded ~seed ~rows in
  let engine = Continuous.Incremental.create (Continuous.Registry.create cluster) in
  let standing =
    List.map
      (fun (delivery, text) ->
        let sid =
          Run.ok_or_fail "stream register"
            (Continuous.Incremental.register engine ~delivery (Auditor_engine.Text text))
        in
        (sid, delivery, Run.parse text))
      (Inputs.standing ~seed)
  in
  { cluster; ticket; engine; standing }

let run (cfg : Run.config) : Results.result =
  let seed = cfg.Run.seed in
  Calib.part := Calib.Lookups;  (* engine-bound: slows as table lookups do *)
  let rows = Run.scale cfg preload_rows in
  let st0, setup_s, setup_meta = Run.repeated_setup cfg (build ~seed ~rows) in
  let st = ref st0 in
  (* Oracle mirror of the episode's cluster: reassembled records,
     glsn-ascending once reversed; extended lazily, untimed, whenever a
     check needs it. *)
  let mirror = ref [] and pending = ref [] in
  let reset_mirror () =
    mirror := List.rev (Oracle.reassemble !st.cluster (Cluster.all_glsns !st.cluster));
    pending := []
  in
  reset_mirror ();
  let records () =
    mirror := List.rev_append (Oracle.reassemble !st.cluster (List.rev !pending)) !mirror;
    pending := [];
    List.rev !mirror
  in
  let correct = ref true and failed = ref 0 and attempted = ref 0 in
  let commits = ref 0 and reads = ref 0 in
  let check_standing () =
    Measure.untimed (fun () ->
        let records = records () in
        List.iter
          (fun (sid, delivery, query) ->
            match Continuous.Incremental.verdict !st.engine sid with
            | None -> correct := false
            | Some v ->
              let got =
                Oracle.of_answer ~count:v.Continuous.Incremental.count
                  ~matching:v.Continuous.Incremental.matching
              in
              if
                not
                  (Oracle.agrees ~what:"standing" ~text:(Query.to_string query) ~got
                     ~want:(Oracle.expected records delivery query))
              then correct := false)
          !st.standing)
  in
  (* Row [rows + k] of the seeded stream is the run's k-th commit. *)
  let commit ~op samples =
    let i = rows + !commits in
    incr commits;
    incr attempted;
    match
      Measure.timed (fun () ->
          Span.with_span ~op "cluster.submit" (fun () ->
              Cluster.submit !st.cluster ~ticket:!st.ticket ~origin ~attributes:(Inputs.row ~seed i)))
    with
    | (Cluster.Committed glsn | Cluster.Committed_degraded (glsn, _)), ms ->
      Samples.add samples ms;
      pending := glsn :: !pending
    | Cluster.Rejected _, _ -> incr failed
  in
  let read ~op samples =
    let delivery, text = Inputs.stream_read ~seed !reads in
    incr reads;
    incr attempted;
    match
      Measure.timed (fun () ->
          Span.with_span ~op "auditor_engine.run" (fun () ->
              Auditor_engine.run !st.cluster ~delivery ~auditor:Run.auditor (Auditor_engine.Text text)))
    with
    | Error _, _ -> incr failed
    | Ok a, ms ->
      Samples.add samples ms;
      Measure.untimed (fun () ->
          let got =
            Oracle.of_answer ~count:a.Auditor_engine.count ~matching:a.Auditor_engine.matching
          in
          let want = Oracle.expected (records ()) delivery (Run.parse text) in
          if not (Oracle.agrees ~what:"read" ~text ~got ~want) then correct := false)
  in
  (* One loop step: a commit, plus a read after every [read_every]th. *)
  let step ~op commit_lat read_lat =
    commit ~op commit_lat;
    if !commits mod read_every = 0 then read ~op read_lat
  in
  (* At an episode's end: check the standing verdicts, then start the
     next episode on a fresh cluster, with the old one's garbage
     collected. *)
  let between _ =
    if !commits mod episode_commits = 0 then
      Run.aside (fun () ->
          check_standing ();
          st := build ~seed ~rows ();
          Gc.full_major ();
          reset_mirror ())
  in
  let scratch = Samples.create () in
  for _ = 1 to warmup_commits do step ~op:(-1) scratch scratch done;
  let prefix = episode_commits - warmup_commits in
  let commit_lat = Samples.create () and read_lat = Samples.create () in
  let commit_traced = Samples.create () and read_traced = Samples.create () in
  let ops0 = !attempted and commits0 = !commits in
  let loop =
    Run.measured cfg ~workload:name ~seconds:cfg.Run.seconds ~prefix ~window:read_every ~between
      ~ops:(fun () -> !attempted - !failed) (fun ~traced i ->
        if traced then step ~op:i commit_traced read_traced else step ~op:i commit_lat read_lat)
  in
  check_standing ();
  let ops = !attempted - ops0 in
  let meta =
    [ ("seed", Results.int seed); ("preload_rows", Results.int rows);
      ("warmup_commits", Results.int warmup_commits) ]
    @ setup_meta
    @ [ ("standing", Obs.Json.List (List.map (fun (_, t) -> Results.str t) (Inputs.standing ~seed)));
        ("commits", Results.int loop.Run.steps);
        ("episode_commits", Results.int episode_commits);
        Run.tail_meta tail;
        ("read_p50_ms", Results.num (median (Samples.to_array read_lat)))
      ]
    @ Run.loop_meta loop ~ops
  in
  if not cfg.Run.trace then
    { Results.workload = name; traced = false; correct = !correct; attempted = !attempted;
      failed = !failed;
      values =
        Run.end_to_end loop ~setup_s ~ops
          ~prefix_ops:(prefix + (prefix / read_every))
          ~latencies:commit_lat ~tail;
      meta }
  else begin
    let counts = Run.layer_counts loop ~ops in
    let per_commit k =
      per (Counters.delta ~before:loop.Run.before ~after:loop.Run.after k) (!commits - commits0)
    in
    let commit_p50 = median (Samples.to_array commit_traced) in
    let st = !st in
    let population = Cluster.record_count st.cluster in
    (* A plain Cluster.submit at the same population, on a twin cluster
       with no standing criteria: what a commit costs without delta
       maintenance. *)
    let plain_ms =
      let twin, ticket = preloaded ~seed ~rows:population in
      let samples = Samples.create () in
      for k = 0 to Run.scale cfg 200 - 1 do
        let _, ms =
          Measure.timed (fun () ->
              Cluster.submit twin ~ticket ~origin ~attributes:(Inputs.row ~seed (population + k)))
        in
        Samples.add samples ms
      done;
      median (Samples.to_array samples)
    in
    ignore (Probe.replay_session st.cluster (List.map (fun (_, _, q) -> q) st.standing));
    let modulus = (Cluster.accumulator_params st.cluster).Crypto.Accumulator.n in
    let op_p50 =
      median (Array.append (Samples.to_array commit_traced) (Samples.to_array read_traced))
    in
    { Results.workload = name; traced = true; correct = !correct; attempted = !attempted;
      failed = !failed;
      values =
        counts
        @ Probe.numtheory ~m:modulus ~batch:4 ~counts ~p50_ms:op_p50
        @ Probe.intersection ~scheme:Probe.xor_scheme loop ~ops ~p50_ms:op_p50
        @ [ ("crypto.blind_us_per_value", Probe.blind_us_per_value ~n:population);
            ("crypto.ticket_verify_us", Probe.ticket_verify_us st.cluster);
            ("crypto.accumulator_digest_us", Probe.accumulator_digest_us st.cluster (Inputs.row ~seed 0));
            ("net.send_us", Probe.send_us ());
            ("cluster.submit_us", 1000.0 *. commit_p50);
            ("planner.parse_plan_us",
              Probe.parse_plan_us (Cluster.fragmentation st.cluster)
                (List.map snd (Inputs.standing ~seed)));
            ("executor.clause_us", 1000.0 *. Span.median_ms "executor.warm_clause");
            ("continuous.insert_per_commit", per_commit "audit.delta.insert");
            ("continuous.reblind_per_commit", per_commit "audit.delta.reblind");
            ("continuous.rebuild_per_commit", per_commit "audit.delta.rebuild");
            ("continuous.maintenance_ms_est", commit_p50 -. plain_ms);
            ("continuous.read_p50_ms", median (Samples.to_array read_lat));
            ( "trace.overhead_pct",
              Run.overhead_pct ~untraced:(Samples.to_array commit_lat)
                ~traced:(Samples.to_array commit_traced) )
          ];
      meta = meta @ [ ("plain_submit_ms", Results.num plain_ms) ] }
  end
