(* audit_mix: one auditor running seeded criteria against a 4-shard
   fleet pre-loaded with 10,000 rows — closed loop, Sharding.audit.

   Engine-dominated (Planner, Executor, blinding, the TTP, ∩ₛ under the
   default XOR pad) with almost no modexp, so it is the workload on
   which a crypto-only change should read "no change".  The seven
   templates span two orders of magnitude of cost; each cycle of seven
   draws runs all of them once in a seeded order. *)

open Dla
open Util

let name = "audit_mix"
let preload_rows = 10_000
let warmup_ops = 7  (* one template cycle *)
let prefix_ops = 14  (* wire and heap metrics: the first two cycles *)
(* p90 over the run, which holds whole cycles of the seven templates
   (100–140 audits): within the dearest template's share *)
let tail = { Run.pct = 0.90; window = 0 }

(* One audit's answer, kept compactly for the post-run oracle check. *)
type answer = {
  text : string;
  delivery : Executor.delivery;
  merged : Oracle.verdict;
  per_shard : Oracle.verdict list;  (** layout order *)
}

let audit fleet ~op text delivery =
  Span.with_span ~op "sharding.audit" (fun () ->
      Sharding.audit fleet ~delivery ~auditor:Run.auditor (Auditor_engine.Text text))

let answer_of text delivery (a : Sharding.audit) =
  let v (x : Auditor_engine.audit) =
    Oracle.of_answer ~count:x.Auditor_engine.count ~matching:x.Auditor_engine.matching
  in
  { text; delivery; merged = v a.Sharding.merged; per_shard = List.map (fun (_, x) -> v x) a.Sharding.per_shard }

(* Per shard and merged: Query.eval_record over each shard's
   reassembled records. *)
let check fleet answers =
  let shard_records =
    List.map
      (fun s -> (s.Sharding.name, Oracle.reassemble s.Sharding.cluster (Cluster.all_glsns s.Sharding.cluster)))
      (Sharding.shards fleet)
  in
  let all = List.concat_map snd shard_records in
  let expected = Oracle.memo () in
  List.for_all
    (fun a ->
      Oracle.agrees ~what:"fleet" ~text:a.text ~got:a.merged
        ~want:(expected ~scope:"fleet" all a.delivery a.text)
      && List.for_all2
           (fun (scope, records) v ->
             Oracle.agrees ~what:scope ~text:a.text ~got:v
               ~want:(expected ~scope records a.delivery a.text))
           shard_records a.per_shard)
    answers

let run (cfg : Run.config) : Results.result =
  let seed = cfg.Run.seed in
  Calib.part := Calib.Lookups;  (* engine-bound: slows as table lookups do *)
  let rows = Run.scale cfg preload_rows in
  let fleet, setup_s, setup_meta = Run.repeated_setup cfg (Wl_ingest.preloaded ~seed ~rows) in
  let answers = ref [] and failed = ref 0 and attempted = ref 0 in
  let draw i =
    let t = Inputs.template_of ~seed i in
    (t.Inputs.text ~seed i, t.Inputs.delivery)
  in
  let step ~op samples i =
    let text, delivery = draw i in
    incr attempted;
    match Measure.timed (fun () -> audit fleet ~op text delivery) with
    | Ok a, ms ->
      Samples.add samples ms;
      answers := answer_of text delivery a :: !answers
    | Error _, _ -> incr failed
  in
  let scratch = Samples.create () in
  for i = 0 to warmup_ops - 1 do step ~op:(-1) scratch i done;
  let lat = Samples.create () and lat_traced = Samples.create () in
  let loop =
    Run.measured cfg ~workload:name ~seconds:cfg.Run.seconds ~prefix:prefix_ops
      ~window:(List.length Inputs.templates) ~ops:(fun () -> !attempted - !failed) (fun ~traced i ->
        step ~op:i (if traced then lat_traced else lat) (warmup_ops + i))
  in
  let ops = loop.Run.steps in
  let correct = Measure.untimed (fun () -> check fleet !answers) in
  let meta =
    [ ("seed", Results.int seed); ("preload_rows", Results.int rows);
      ("warmup_ops", Results.int warmup_ops) ]
    @ setup_meta
    @ [ ("templates", Obs.Json.List (List.map (fun t -> Results.str t.Inputs.label) Inputs.templates));
      Run.tail_meta tail
    ]
    @ Run.loop_meta loop ~ops
  in
  if not cfg.Run.trace then
    { Results.workload = name; traced = false; correct; attempted = !attempted; failed = !failed;
      values =
        Run.end_to_end loop ~setup_s ~ops ~prefix_ops ~latencies:lat ~tail;
      meta }
  else begin
    let counts = Run.layer_counts loop ~ops in
    let traced_p50 = median (Samples.to_array lat_traced) in
    let shard_list = Sharding.shards fleet in
    let shard0 = (List.hd shard_list).Sharding.cluster in
    let cycle = List.init (List.length Inputs.templates) (fun i -> draw (warmup_ops + i)) in
    (* Fan-out self time: Sharding.audit minus the per-shard engine runs
       it wraps, run back to back on the same requests. *)
    let fanout =
      List.map
        (fun (text, delivery) ->
          let t0 = now () in
          ignore (audit fleet ~op:(-1) text delivery);
          let whole = now () -. t0 in
          let t1 = now () in
          List.iter
            (fun s ->
              Span.with_span ~op:(-1) "auditor_engine.run" (fun () ->
                  ignore
                    (Auditor_engine.run s.Sharding.cluster ~delivery ~auditor:Run.auditor
                       (Auditor_engine.Text text))))
            shard_list;
          1000.0 *. (whole -. (now () -. t1)))
        cycle
    in
    ignore (Probe.replay_session shard0 (List.map (fun (t, _) -> Run.parse t) cycle));
    let per_shard_rows = rows / Wl_ingest.shards in
    let modulus = (Cluster.accumulator_params shard0).Crypto.Accumulator.n in
    { Results.workload = name; traced = true; correct; attempted = !attempted; failed = !failed;
      values =
        counts
        @ Probe.numtheory ~m:modulus ~batch:4 ~counts ~p50_ms:traced_p50
        @ Probe.intersection ~scheme:Probe.xor_scheme loop ~ops ~p50_ms:traced_p50
        @ [ ("crypto.blind_us_per_value", Probe.blind_us_per_value ~n:per_shard_rows);
            ("net.send_us", Probe.send_us ());
            ("planner.parse_plan_us",
              Probe.parse_plan_us (Cluster.fragmentation shard0) (List.map fst cycle));
            ("executor.clause_us", 1000.0 *. Span.median_ms "executor.warm_clause");
            ("sharding.fanout_self_ms", median (Array.of_list fanout));
            ("sharding.shard_imbalance", Probe.shard_imbalance fleet);
            ( "trace.overhead_pct",
              Run.overhead_pct ~untraced:(Samples.to_array lat) ~traced:(Samples.to_array lat_traced) )
          ];
      meta }
  end
