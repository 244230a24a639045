(* ingest: loggers pushing events into a 4-shard fleet (§2, §4).

   Loggers are independent users, so latency comes from an open loop at
   a fixed offered rate (about half of what a 2-core host sustains), timed
   from each submit's due time; a closed loop after it gives the
   throughput.  Stresses the Cluster submit path (ticket check, glsn,
   fragmentation, ACL, accumulator digest), Sharding routing and Net
   accounting; no audit layer runs.

   A submit's cost, and the heap the collector works through, grow with
   the population, so the run goes in episodes of 8,000 submits, each on
   a freshly built 2,000-row fleet (built aside: off the clocks and the
   counters).  Every op then sees a population of 2,000–10,000 rows,
   however many of them a run fits in. *)

open Dla
open Util

let name = "ingest"
let shards = 4
let fleet_seed = 5
let preload_rows = 2_000
let episode_submits = 8_000
let warmup_ops = 2_000
let prefix_ops = 2_000  (* wire and heap metrics: first ops of the closed loop *)
let offered_rate = 1_500.0
let closed_share = 0.4  (* of the measured seconds; the open loop gets the rest *)
(* p90 of each second of the open loop, median over seconds *)
let tail = { Run.pct = 0.90; window = 1_500 }
let window_ops = 500  (* throughput window: ~0.2 s of submits *)

(* A fleet already holding rows [0, rows) of the seeded stream: the log
   each episode's loggers join, and the one audit_mix audits. *)
let preloaded ~seed ~rows () =
  let fleet = Sharding.create ~seed:fleet_seed ~shards Fragmentation.paper_partition in
  for i = 0 to rows - 1 do
    match
      Sharding.submit fleet ~origin:(Net.Node_id.User (Inputs.principal ~seed i))
        ~attributes:(Inputs.row ~seed i)
    with
    | Ok _ -> ()
    | Error e -> failwith ("preload: " ^ e)
  done;
  fleet

(* Submitted rows as (glsn, row index, shard index), newest first. *)
type log = { mutable entries : (Glsn.t * int * int) list; mutable failed : int }

let check ~seed ~rows fleet log =
  let shards = Array.of_list (Sharding.shards fleet) in
  let sorted attrs = List.sort (fun (a, _) (b, _) -> Attribute.compare a b) attrs in
  let same a b =
    List.length a = List.length b
    && List.for_all2 (fun (x, v) (y, w) -> Attribute.equal x y && Value.equal v w) a b
  in
  Sharding.record_count fleet = rows + List.length log.entries
  && List.for_all
       (fun (glsn, i, index) ->
         let origin = Net.Node_id.User (Inputs.principal ~seed i) in
         let shard = shards.(index) in
         (Sharding.shard_of_user fleet origin).Sharding.index = index
         && (match Sharding.owner_of fleet glsn with
            | Some owner -> owner.Sharding.index = index
            | None -> false)
         &&
         match Cluster.record_of shard.Sharding.cluster glsn with
         | None -> false
         | Some r ->
           Net.Node_id.equal (Log_record.origin r) origin
           && same (Log_record.attributes r) (sorted (Inputs.row ~seed i)))
       log.entries

let run (cfg : Run.config) : Results.result =
  let seed = cfg.Run.seed in
  let rows = Run.scale cfg preload_rows in
  let fleet0, setup_s, setup_meta = Run.repeated_setup cfg (preloaded ~seed ~rows) in
  let fleet = ref fleet0 in
  let log = { entries = []; failed = 0 } in
  let next = ref rows and in_episode = ref 0 and correct = ref true in
  let episode = Run.scale cfg episode_submits in
  (* After [episode] submits to a fleet: check it against the oracle,
     then go on with a fresh one, with the old one's garbage collected.
     Aside: off the clocks and the counters. *)
  let end_episode () =
    if !in_episode >= episode then
      Run.aside (fun () ->
          if not (check ~seed ~rows !fleet log) then correct := false;
          log.entries <- [];
          in_episode := 0;
          fleet := preloaded ~seed ~rows ();
          Gc.full_major ())
  in
  (* One submit; whether it was accepted. *)
  let submit ~op () =
    let i = !next in
    incr next;
    incr in_episode;
    let origin = Net.Node_id.User (Inputs.principal ~seed i) in
    let attributes = Inputs.row ~seed i in
    match
      Span.with_span ~op "sharding.submit" (fun () -> Sharding.submit !fleet ~origin ~attributes)
    with
    | Ok (shard, glsn) ->
      log.entries <- (glsn, i, shard.Sharding.index) :: log.entries;
      true
    | Error _ ->
      log.failed <- log.failed + 1;
      false
  in
  let warmup = Run.scale cfg warmup_ops and prefix = Run.scale cfg prefix_ops in
  for _ = 1 to warmup do
    end_episode ();
    ignore (submit ~op:(-1) ())
  done;
  (* The open loop runs first, on a fixed number of submits, so the
     populations it writes to are the same at any host speed; the
     closed loop follows.  A traced run gives the whole budget to the
     closed loop: per-layer counts are per op either way. *)
  let open_s = if cfg.Run.trace then 0.0 else cfg.Run.seconds *. (1.0 -. closed_share) in
  let b =
    Calib.ticking (fun () ->
        Measure.open_loop ~seconds:open_s ~rate:offered_rate ~pace:Calib.sample (fun k ->
            end_episode ();
            submit ~op:k ()))
  in
  let lat = Samples.create () and lat_traced = Samples.create () in
  let loop =
    Run.measured cfg ~workload:name ~seconds:(cfg.Run.seconds -. open_s) ~prefix
      ~window:(Run.scale cfg window_ops) ~ops:(fun () -> !next - log.failed)
      ~between:(fun _ -> end_episode ())
      (fun ~traced i ->
        let ok, ms = Measure.timed (submit ~op:i) in
        if ok then Samples.add (if traced then lat_traced else lat) ms)
  in
  let fleet = !fleet in
  let meta =
    [ ("seed", Results.int seed); ("preload_rows", Results.int rows);
      ("warmup_ops", Results.int warmup); ("episode_submits", Results.int episode) ]
    @ setup_meta
    @ Run.loop_meta loop ~ops:loop.Run.steps
  in
  let correct = Measure.untimed (fun () -> check ~seed ~rows fleet log) && !correct in
  if not cfg.Run.trace then begin
    let latencies = b.Measure.latencies in
    { Results.workload = name; traced = false; correct; attempted = !next - rows; failed = log.failed;
      values =
        Run.end_to_end loop ~setup_s ~ops:loop.Run.steps ~prefix_ops:prefix ~latencies ~tail;
      meta =
        meta
        @ [ ("open_loop_ops", Results.int b.Measure.ops); ("open_loop_wall_s", Results.num open_s);
            ("offered_rate_per_s", Results.num offered_rate);
            ("max_lateness_ms", Results.num b.Measure.max_lateness_ms);
            Run.tail_meta tail
          ] }
  end
  else begin
    let counts = Run.layer_counts loop ~ops:loop.Run.steps in
    let traced_p50 = median (Samples.to_array lat_traced) in
    let shard0 = (List.hd (Sharding.shards fleet)).Sharding.cluster in
    let modulus = (Cluster.accumulator_params shard0).Crypto.Accumulator.n in
    (* Direct Cluster.submit on each row's home shard, under a ticket
       the probe issues itself: the cluster layer without routing. *)
    let direct = Samples.create () in
    let tickets = Hashtbl.create 64 in
    for k = 0 to Run.scale cfg 400 - 1 do
      let i = !next + k in
      let user = Inputs.principal ~seed i in
      let origin = Net.Node_id.User user in
      let shard = Sharding.shard_of_user fleet origin in
      let cluster = shard.Sharding.cluster in
      let key = (shard.Sharding.index, user) in
      let ticket =
        match Hashtbl.find_opt tickets key with
        | Some t -> t
        | None ->
          let t =
            Cluster.issue_ticket cluster ~id:"probe" ~principal:origin ~rights:[ Ticket.Write ]
              ~ttl:86_400
          in
          Hashtbl.replace tickets key t;
          t
      in
      let _, ms =
        Measure.timed (fun () ->
            Span.with_span ~op:(-1) "cluster.submit" (fun () ->
                Cluster.submit cluster ~ticket ~origin ~attributes:(Inputs.row ~seed i)))
      in
      Samples.add direct ms
    done;
    { Results.workload = name; traced = true; correct; attempted = !next - rows; failed = log.failed;
      values =
        counts
        @ Probe.numtheory ~m:modulus ~batch:4 ~counts ~p50_ms:traced_p50
        @ [ ("crypto.ticket_verify_us", Probe.ticket_verify_us shard0);
            ("crypto.accumulator_digest_us", Probe.accumulator_digest_us shard0 (Inputs.row ~seed 0));
            ("net.send_us", Probe.send_us ());
            ("cluster.submit_us", 1000.0 *. median (Samples.to_array direct));
            ("sharding.shard_imbalance", Probe.shard_imbalance fleet);
            ( "trace.overhead_pct",
              Run.overhead_pct ~untraced:(Samples.to_array lat) ~traced:(Samples.to_array lat_traced) )
          ];
      meta }
  end
