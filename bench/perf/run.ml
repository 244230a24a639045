(* Run configuration and the per-layer counters every workload shares. *)

open Util

type config = {
  seed : int;
  seconds : float;  (** timed wall clock of the measured phase *)
  trace : bool;
  smoke : bool;  (** ~1% sizes, one set-up: keeps the harness from rotting *)
}

let scale cfg n = if cfg.smoke then max 1 (n / 100) else n

let auditor = Net.Node_id.Auditor

(* Build the workload state several times, report the median set-up
   time and keep the last state, so that work moved into set-up shows.
   Three builds; a traced or smoke run builds once.  The count is fixed,
   not set by how long builds take: each build leaves the collector's
   heap a little larger, and the heap peak must not move with the host's
   speed.  Each build's time is scaled to the reference host speed by
   the readings taken around and during it.  A full major collection
   between builds keeps a discarded state from inflating the next one's
   heap peak.  Returns the last state, the set-up time and its
   metadata. *)
let setup_builds = 3

let repeated_setup cfg build =
  let count = if cfg.trace || cfg.smoke then 1 else setup_builds in
  let rec go builds =
    Gc.full_major ();
    let t0 = Measure.clock () in
    let state, f = Calib.during build in
    let dt = Measure.clock () -. t0 in
    let builds = (dt, f) :: builds in
    if List.length builds >= count then (state, List.rev builds) else go builds
  in
  let state, builds = go [] in
  let setup_s = Util.median (Array.of_list (List.map (fun (dt, f) -> dt /. f) builds)) in
  let nums f = Obs.Json.List (List.map (fun b -> Results.num (f b)) builds) in
  (state, setup_s, [ ("setup_s_each", nums fst); ("setup_speed_factors", nums snd) ])

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Dla.Audit_error.to_string e))

let parse text =
  match Dla.Query.parse text with
  | Ok q -> q
  | Error e -> failwith (Printf.sprintf "query %S: %s" text e)

type loop = {
  steps : int;
  wall_s : float;  (** timed wall clock *)
  before : Counters.t;  (** counters at the start of the loop *)
  at_prefix : Counters.t;  (** ... after the first [prefix] steps *)
  after : Counters.t;  (** ... at the end *)
  heap_mb : float;  (** heap peak after the first [prefix] steps *)
  gc0 : Gc_snap.t;
  gc1 : Gc_snap.t;
  window_rates : float array;  (** ops per second of each window, at the reference speed *)
}

(* Work inside a measured phase that belongs to no op, such as
   rebuilding a workload's state: off the phase clock, and out of the
   counters and GC counts. *)
let aside f =
  let r = Measure.untimed (fun () -> Counters.aside (fun () -> Gc_snap.aside f)) in
  (* Host speed readings taken meanwhile belong to no window. *)
  ignore (Calib.drain ());
  r

(* The measured closed loop: [step ~traced i] under the root span
   "<workload>.op" for at least [seconds] and [prefix] steps.

   Steps are grouped in windows of [window] steps — one cycle of the
   workload's op mix.  Throughput is the median over windows of the ops
   a window completed per second ([ops ()] counts the ops that
   succeeded; a failed op fails the run anyway): on a shared
   host, a burst of interference then costs a few windows instead of
   the mean.  The host speed is read every [Calib.tick_s] throughout,
   and each window's latencies and rate are scaled by the readings
   taken during it.
   A traced run alternates windows with spans on and off, so
   [trace.overhead_pct] compares the two at the same point of the run
   and over the same mix; counters cover both.  [between i] runs after
   step [i] and the window it ends, outside its span: work there that
   belongs to no op goes through [aside]. *)
let measured cfg ~workload ~seconds ~prefix ~window ?(between = ignore) ~ops step =
  Measure.start_phase ();
  let at_prefix = ref None in
  let before = Counters.snapshot () and gc0 = Gc_snap.take () in
  let rates = Samples.create () in
  let mark = ref (0.0, 0) in
  let steps, wall_s =
    Calib.ticking (fun () ->
        Measure.closed_loop ~seconds ~min_ops:prefix ~window (fun i ->
            if i = 0 then begin
              ignore (Calib.sample ());
              mark := (Measure.clock (), ops ())
            end;
            let traced = cfg.trace && i / window mod 2 = 1 in
            Span.enabled := traced;
            Span.with_span ~op:i (workload ^ ".op") (fun () -> step ~traced i);
            if i = prefix - 1 then at_prefix := Some (Counters.snapshot (), Gc_snap.heap_peak_mb ());
            if (i + 1) mod window = 0 then begin
              let t = Measure.clock () and n = ops () in
              let t0, n0 = !mark in
              Samples.add rates (float_of_int (n - n0) /. (t -. t0));
              ignore (Calib.sample ());
              mark := (t, n)
            end;
            between i))
  in
  let after = Counters.snapshot () and gc1 = Gc_snap.take () in
  (* Probes after the loop record their spans in a traced run. *)
  Span.enabled := cfg.trace;
  let at_prefix, heap_mb = Option.get !at_prefix in
  { steps; wall_s; before; at_prefix; after; heap_mb; gc0; gc1;
    window_rates = Calib.rates rates }

let overhead_pct ~untraced ~traced =
  let a = Util.median untraced and b = Util.median traced in
  if a = 0.0 then 0.0 else 100.0 *. ((b /. a) -. 1.0)

(* Per-op layer counts over the measured loop, which ran [ops]
   operations. *)
let layer_counts loop ~ops =
  let d = Counters.delta ~before:loop.before ~after:loop.after in
  let gc0 = loop.gc0 and gc1 = loop.gc1 in
  let per_op k = per (d k) ops in
  let sum ks = List.fold_left (fun acc k -> acc + d k) 0 ks in
  let ratio_of hits misses = Util.ratio (float_of_int hits) (float_of_int (hits + misses)) in
  let committed = d "cluster.submit.committed"
  and degraded = d "cluster.submit.degraded"
  and rejected = d "cluster.submit.rejected" in
  let local = d "executor.atoms.local" and cross = d "executor.atoms.cross" in
  let hits = d "audit.cache_hit" in
  [ ("numtheory.modexp_per_op", per_op "crypto.modexp");
    ( "numtheory.fixed_base_per_op",
      per (sum [ "crypto.mont.fixed_base_hit"; "crypto.mont.fixed_base_miss" ]) ops );
    ("numtheory.mont_ctx_hit_ratio",
      ratio_of (d "crypto.mont.cache_hit") (d "crypto.mont.cache_miss"));
    ("numtheory.fixed_base_hit_ratio",
      ratio_of (d "crypto.mont.fixed_base_hit") (d "crypto.mont.fixed_base_miss"));
    ("numtheory.pool_jobs_per_op", per_op "pool.jobs");
    ("crypto.commutative_enc_per_op", per_op "crypto.commutative.enc");
    ("crypto.commutative_dec_per_op", per_op "crypto.commutative.dec");
    ("crypto.blind_per_op", per (sum [ "crypto.blind.affine"; "crypto.blind.monotone" ]) ops);
    ("crypto.aead_per_op", per (sum [ "crypto.aead.seal"; "crypto.aead.open" ]) ops);
    ("net.msgs_per_op", per_op "net.msgs");
    ("net.bytes_per_op", per_op "net.bytes");
    ("net.bytes_per_op.intersection_relay", per_op "net.bytes.intersection:relay");
    ("net.bytes_per_op.intersection_collect", per_op "net.bytes.intersection:collect");
    ("net.bytes_per_op.query_cross_column", per_op "net.bytes.query:cross-column");
    ("net.bytes_per_op.query_final", per_op "net.bytes.query:final");
    ("net.frame_coalesced_per_op", per_op "net.frame.coalesced");
    ("net.retry_attempts_per_op", per_op "retry.attempts");
    ("net.drops_per_op", per_op "net.drops");
    ("cluster.committed_ratio", ratio_of committed (degraded + rejected));
    ("cluster.rejected_per_op", per rejected ops);
    ("cluster.degraded_per_op", per degraded ops);
    ("executor.atoms_local_per_op", per local ops);
    ("executor.atoms_cross_per_op", per cross ops);
    ("executor.cache_hit_ratio", ratio_of hits (local + cross));
    ("session.cache_hits_per_op", per hits ops);
    ("sharding.cross_shard_msgs_per_op", per_op "audit.cross_shard_msgs");
    ( "gc.minor_words_per_op",
      Util.ratio (gc1.Gc_snap.minor -. gc0.Gc_snap.minor) (float_of_int ops) );
    ( "gc.promoted_words_per_op",
      Util.ratio (gc1.Gc_snap.promoted -. gc0.Gc_snap.promoted) (float_of_int ops) );
    ("gc.major_collections_per_op", per (gc1.Gc_snap.majors - gc0.Gc_snap.majors) ops)
  ]

(* Estimated share of an op's wall time spent in [per_op] calls of a
   probed unit cost — a count times a probe, not a measurement. *)
let share_est ~per_op ~unit_us ~p50_ms = Util.ratio (per_op *. unit_us) (1000.0 *. p50_ms)

(* A workload's tail: percentile [pct] of op latency, computed in each
   run of [window] consecutive ops and reported as the median over those
   windows — the tail of a typical stretch of the run, which a burst of
   interference on a shared host moves only if it covers half the run.
   [window = 0] takes the percentile over the whole run, for workloads
   whose tail is the dearest part of their op mix. *)
type tail = { pct : float; window : int }

let tail_ms { pct; window } latencies =
  let n = Array.length latencies in
  if window = 0 || n < 2 * window then percentile (sorted_copy latencies) pct
  else
    median
      (Array.init (n / window) (fun k ->
           percentile (sorted_copy (Array.sub latencies (k * window) window)) pct))

let tail_meta t = ("tail", Obs.Json.Obj [ ("percentile", Results.num t.pct); ("window_ops", Results.int t.window) ])

(* The end-to-end metrics every workload reports the same way.  Timings
   are scaled to the reference host speed ([Calib]; [setup_s] already
   is, build by build).  The §3 wire cost and the heap peak are taken
   over the loop's fixed prefix of [prefix_ops] operations: a
   deterministic op sequence, so they do not move with speed. *)
let end_to_end loop ~setup_s ~ops ~prefix_ops ~latencies ~tail =
  let d = Counters.delta ~before:loop.before ~after:loop.at_prefix in
  let latencies = Calib.times latencies in
  [ ("setup_s", setup_s);
    ( "ops_per_s",
      if loop.window_rates = [||] then Calib.factor () *. float_of_int ops /. loop.wall_s
      else median loop.window_rates );
    ("p50_ms", median latencies);
    ("tail_ms", tail_ms tail latencies);
    ("heap_peak_mb", loop.heap_mb);
    ("wire_msgs_per_op", per (d "net.msgs") prefix_ops);
    ("wire_bytes_per_op", per (d "net.bytes") prefix_ops);
    ("wire_rounds_per_op", per (d "net.rounds") prefix_ops)
  ]

let loop_meta loop ~ops =
  [ ("measured_ops", Results.int ops); ("measured_steps", Results.int loop.steps);
    ("measured_wall_s", Results.num loop.wall_s)
  ]

