(* Metric catalogue, run metadata and result output.

   The two lists below are the benchmark's contract: an untraced run
   prints every end-to-end metric, a traced run every per-layer metric,
   for every workload (a layer a workload bypasses reads 0).
   BENCHMARK.json declares the same names, units and bounds. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("p50_ms", "ms");
    ("tail_ms", "ms"); ("wire_msgs_per_op", "msgs");
    ("wire_bytes_per_op", "bytes"); ("wire_rounds_per_op", "rounds");
    ("heap_peak_mb", "MB")
  ]

let per_layer =
  [ ("numtheory.modexp_per_op", "count");
    ("numtheory.fixed_base_per_op", "count");
    ("numtheory.mont_ctx_hit_ratio", "ratio");
    ("numtheory.fixed_base_hit_ratio", "ratio");
    ("numtheory.pool_jobs_per_op", "count");
    ("numtheory.modexp_us", "us");
    ("numtheory.pow_many_us_per_elem", "us");
    ("numtheory.modexp_share_est", "ratio");
    ("crypto.commutative_enc_per_op", "count");
    ("crypto.commutative_dec_per_op", "count");
    ("crypto.blind_per_op", "count");
    ("crypto.aead_per_op", "count");
    ("crypto.blind_us_per_value", "us");
    ("crypto.ticket_verify_us", "us");
    ("crypto.accumulator_digest_us", "us");
    ("smc.intersection_us", "us");
    ("smc.intersection_share_est", "ratio");
    ("net.msgs_per_op", "msgs");
    ("net.bytes_per_op", "bytes");
    ("net.bytes_per_op.intersection_relay", "bytes");
    ("net.bytes_per_op.intersection_collect", "bytes");
    ("net.bytes_per_op.query_cross_column", "bytes");
    ("net.bytes_per_op.query_final", "bytes");
    ("net.frame_coalesced_per_op", "count");
    ("net.retry_attempts_per_op", "count");
    ("net.drops_per_op", "count");
    ("net.send_us", "us");
    ("cluster.submit_us", "us");
    ("cluster.committed_ratio", "ratio");
    ("cluster.rejected_per_op", "count");
    ("cluster.degraded_per_op", "count");
    ("planner.parse_plan_us", "us");
    ("executor.atoms_local_per_op", "count");
    ("executor.atoms_cross_per_op", "count");
    ("executor.cache_hit_ratio", "ratio");
    ("executor.clause_us", "us");
    ("session.self_ms", "ms");
    ("session.dedup_clause_ratio", "ratio");
    ("session.cache_hits_per_op", "count");
    ("session.model.pipeline_virtual_speedup", "x");
    ("continuous.insert_per_commit", "count");
    ("continuous.reblind_per_commit", "count");
    ("continuous.rebuild_per_commit", "count");
    ("continuous.maintenance_ms_est", "ms");
    ("continuous.read_p50_ms", "ms");
    ("sharding.cross_shard_msgs_per_op", "msgs");
    ("sharding.fanout_self_ms", "ms");
    ("sharding.shard_imbalance", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%")
  ]

type result = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  meta : (string * Obs.Json.t) list;
}

let num f = Obs.Json.Num (if Float.is_finite f then f else 0.0)
let int i = Obs.Json.Num (float_of_int i)
let str s = Obs.Json.Str s

(* The metrics this run reports, in catalogue order.  A missing
   end-to-end value is a bug in the workload, not a zero. *)
let reported r =
  let catalogue = if r.traced then per_layer else end_to_end in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name r.values with
      | Some v -> (name, v, unit)
      | None when r.traced -> (name, 0.0, unit)
      | None ->
        failwith (Printf.sprintf "%s: end-to-end metric %s missing" r.workload name))
    catalogue

let metrics_json r =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", num v); ("unit", str unit) ]))
       (reported r))

(* Every workload is chosen so that no op fails: a failed op counts as a
   wrong answer.  The error rate is therefore recorded with the run, not
   declared as a metric, which would always read 0. *)
let passed r = r.correct && r.failed = 0
let error_rate r = Util.per r.failed r.attempted

(* The one-line summary, last line of standard output: exactly these
   four keys. *)
let summary_json r =
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool (passed r)); ("attempted", int r.attempted);
      ("failed", int r.failed); ("metrics", metrics_json r)
    ]

let print r =
  Printf.printf "\n[%s] %s metrics%s\n" r.workload
    (if r.traced then "per-layer" else "end-to-end")
    (if r.traced then "" else Printf.sprintf " (host speed factor %.3f)" (Calib.factor ()));
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-44s %16.4f %s\n" name v unit)
    (reported r);
  Printf.printf "  attempted %d, failed %d (error rate %.4f), oracle %s\n" r.attempted r.failed
    (error_rate r) (if r.correct then "ok" else "MISMATCH")

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.bind line int_of_string_opt

(* Machine and runtime provenance: enough to tell whether two result
   sets were measured under the same conditions. *)
let machine_meta () =
  let g = Gc.get () in
  let config = Net.Config.default in
  [ ("recommended_domain_count", int (Domain.recommended_domain_count ()));
    ("nproc", match nproc () with Some n -> int n | None -> Obs.Json.Null);
    ("ocaml_version", str Sys.ocaml_version);
    ("word_size", int Sys.word_size);
    ("os_type", str Sys.os_type);
    ( "gc",
      Obs.Json.Obj
        [ ("minor_heap_size_words", int g.Gc.minor_heap_size);
          ("space_overhead", int g.Gc.space_overhead);
          ("max_overhead", int g.Gc.max_overhead);
          ("stack_limit", int g.Gc.stack_limit);
          ("allocation_policy", int g.Gc.allocation_policy);
          ("custom_major_ratio", int g.Gc.custom_major_ratio);
          ("custom_minor_ratio", int g.Gc.custom_minor_ratio)
        ] );
    ( "library_defaults",
      Obs.Json.Obj
        [ ("net_config_domains", int config.Net.Config.domains);
          ("net_config_max_pipeline_depth", int config.Net.Config.max_pipeline_depth);
          ("net_config_coalesce", Obs.Json.Bool config.Net.Config.coalesce);
          ("ambient_pool_width",
            int (Numtheory.Domain_pool.domains (Numtheory.Domain_pool.current ())));
          ("mont_cache_capacity", int (Numtheory.Modular.mont_cache_capacity ()))
        ] )
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Results file [<out>/<workload>/seed<N>.json] (traced:
   [seed<N>.trace.json]) — what [perf.exe compare] reads — plus the
   traced run's [spans.json]. *)
let write ~out ~seed r =
  let dir = Filename.concat out r.workload in
  mkdir_p dir;
  let file =
    Printf.sprintf "seed%d%s.json" seed (if r.traced then ".trace" else "")
  in
  let doc =
    Obs.Json.Obj
      [ ("workload", str r.workload); ("seed", int seed);
        ("traced", Obs.Json.Bool r.traced); ("correct", Obs.Json.Bool (passed r));
        ("attempted", int r.attempted); ("failed", int r.failed);
        ("error_rate", num (error_rate r));
        ("metrics", metrics_json r); ("run", Obs.Json.Obj r.meta);
        ("host_speed", Calib.meta ());
        ("machine", Obs.Json.Obj (machine_meta ()))
      ]
  in
  write_file (Filename.concat dir file) (Obs.Json.pretty doc);
  if r.traced then
    write_file (Filename.concat dir "spans.json") (Obs.Json.to_string (Span.to_json ()))
