(* Per-layer probes for traced runs: each times one layer's public
   function at the workload's own parameters (modulus, batch size, set
   sizes, criteria), after the measured phase.  Probe inputs come from
   a fixed generator, not from the workload seed. *)

open Numtheory
open Dla

let rng () = Prng.create ~seed:97

let modexp_us ~m =
  let r = rng () in
  let base = Prng.bignum_range r Bignum.two m and e = Prng.bits r (Bignum.num_bits m) in
  Measure.probe_us ~reps:100 (fun () -> Modular.pow base e ~m)

let pow_many_us_per_elem ~m ~batch =
  let r = rng () in
  let bases = List.init batch (fun _ -> Prng.bignum_range r Bignum.two m) in
  let e = Prng.bits r (Bignum.num_bits m) in
  Measure.probe_us ~reps:4 (fun () -> Modular.pow_many bases e ~m)
  /. float_of_int batch

(* The numtheory probes at modulus [m] and batch size [batch], plus the
   estimated share of an op's p50 that its modexps take. *)
let numtheory ~m ~batch ~counts ~p50_ms =
  let unit_us = modexp_us ~m in
  [ ("numtheory.modexp_us", unit_us);
    ("numtheory.pow_many_us_per_elem", pow_many_us_per_elem ~m ~batch);
    ( "numtheory.modexp_share_est",
      Run.share_est ~per_op:(List.assoc "numtheory.modexp_per_op" counts) ~unit_us ~p50_ms )
  ]

(* The executor blinds numeric columns under a 64-bit monotone map. *)
let blind_us_per_value ~n =
  let blind = Crypto.Blinding.generate_monotone (rng ()) ~bits:64 in
  let values = List.init n (fun i -> Bignum.of_int (50_000 + (i * 7919 mod 20_000))) in
  Measure.probe_us ~reps:10 (fun () -> Crypto.Blinding.apply_monotone_many blind values)
  /. float_of_int n

let ticket_verify_us cluster =
  let ticket =
    Cluster.issue_ticket cluster ~id:"probe" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Write ] ~ttl:86_400
  in
  Measure.probe_us ~reps:1000 (fun () -> Cluster.verify_ticket cluster ticket)

(* The submit path's digest: one accumulator fold over a row's
   fragment wires. *)
let accumulator_digest_us cluster attributes =
  let glsn = Glsn.of_string "139aef78" in
  let record = Log_record.make ~glsn ~origin:(Net.Node_id.User 1) ~attributes in
  let wires =
    List.map
      (fun (_, fragment) -> Log_record.fragment_wire ~glsn fragment)
      (Fragmentation.fragment (Cluster.fragmentation cluster) record)
  in
  let params = Cluster.accumulator_params cluster in
  Measure.probe_us ~reps:100 (fun () -> Crypto.Accumulator.accumulate_all params wires)

(* One ∩ₛ ring pass over [sizes] sets of glsn-like strings (half of
   each set shared with the next), on a fresh default network. *)
let intersection_us ~scheme ~sizes =
  let parties =
    List.mapi
      (fun i size ->
        { Smc.Set_intersection.node = Net.Node_id.Dla i;
          set = List.init size (fun k -> string_of_int (if k mod 2 = 0 then k else k + (i * 1_000_000))) })
      sizes
  in
  Measure.probe_us ~reps:2 (fun () ->
      Smc.Set_intersection.run ~net:(Net.Network.of_config Net.Config.default)
        ~scheme:(scheme ()) ~receiver:(Net.Node_id.Dla 0) parties)

(* [smc.intersection_us] and [smc.intersection_share_est] for a
   workload's measured loop.  The probe is a two-party ring sized from
   the loop's own ring work: two parties encrypt both sets, four
   encryptions per element, so each set gets the loop's commutative
   encryptions per ∩ₛ run over four.  Zeros when the loop ran no ∩ₛ. *)
let intersection ~scheme (loop : Run.loop) ~ops ~p50_ms =
  let d = Util.Counters.delta ~before:loop.Run.before ~after:loop.Run.after in
  let runs = d "count:span.smc.intersection" in
  if runs = 0 then [ ("smc.intersection_us", 0.0); ("smc.intersection_share_est", 0.0) ]
  else
    let enc = d "crypto.commutative.enc" in
    let size = max 1 (enc / runs / 4) in
    let unit_us = intersection_us ~scheme ~sizes:[ size; size ] in
    [ ("smc.intersection_us", unit_us);
      ( "smc.intersection_share_est",
        Run.share_est ~per_op:(Util.per runs ops) ~unit_us ~p50_ms )
    ]

let xor_scheme () =
  Crypto.Commutative.xor_pad (rng ()) (Crypto.Xor_pad.params ~width_bits:256)

(* Largest shard's record count over the mean. *)
let shard_imbalance fleet =
  let counts =
    List.map (fun s -> float_of_int (Cluster.record_count s.Sharding.cluster)) (Sharding.shards fleet)
  in
  Util.ratio (List.fold_left Float.max 0.0 counts)
    (List.fold_left ( +. ) 0.0 counts /. float_of_int (List.length counts))

let send_us () =
  let net = Net.Network.of_config Net.Config.default in
  Measure.probe_us ~reps:4_000 (fun () ->
      Net.Network.send_exn net ~src:(Net.Node_id.Dla 0) ~dst:(Net.Node_id.Dla 1)
        ~label:"probe" ~bytes:64)

(* Query.parse + normalize + Planner.plan, averaged over the texts. *)
let parse_plan_us fragmentation texts =
  let each text =
    Measure.probe_us ~reps:200 (fun () ->
        Planner.plan fragmentation (Query.normalize (Run.parse text)))
  in
  List.fold_left (fun acc t -> acc +. each t) 0.0 texts
  /. float_of_int (max 1 (List.length texts))

(* Replay criteria as an audit session does, one public call at a
   time: plan the batch jointly, warm each distinct clause once, then
   run every criterion against the warm cache.  Returns the replay's
   wall ms; the individual calls are recorded as spans. *)
let replay_session cluster ?conjunction criteria =
  let t0 = Util.now () in
  Span.with_span ~op:(-1) "replay" (fun () ->
      let multi =
        Span.with_span ~op:(-1) "planner.plan_many" (fun () ->
            Planner.plan_many (Cluster.fragmentation cluster)
              (List.map Query.normalize criteria))
        |> Run.ok_or_fail "replay plan"
      in
      let cache = Executor.cache_create () in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun plan ->
          List.iter
            (fun clause ->
              let key =
                Planner.clause_key (List.map (fun a -> a.Planner.atom) clause.Planner.atoms)
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                Span.with_span ~op:(-1) "executor.warm_clause" (fun () ->
                    Executor.warm_clause cluster ~cache clause)
              end)
            plan.Planner.clauses)
        multi.Planner.plans;
      List.iter
        (fun q ->
          Span.with_span ~op:(-1) "executor.run" (fun () ->
              ignore
                (Run.ok_or_fail "replay run"
                   (Executor.run cluster ~cache ?conjunction ~auditor:Run.auditor q))))
        criteria);
  1000.0 *. (Util.now () -. t0)
