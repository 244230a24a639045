type entry = {
  criteria : Query.t;
  matching : Glsn.t list;
  count : int;
  c_auditing : float;
  coverage : Executor.coverage;
}

type summary = {
  entries : entry list;
  unique_atoms : int;
  unique_clauses : int;
  dedup_atoms : int;
  dedup_clauses : int;
  cache_hits : int;
  messages : int;
  bytes : int;
  rounds : int;
  pipeline : Net.Runtime.Pipeline.report;
}

(* Scheduling weight of one clause: local atoms are a single in-situ
   scan, cross atoms cost a negotiate + two blinded-column transfers +
   a TTP round.  Cheap clauses run first, so every query's local work
   pipelines ahead of the TTP-bound tail; a stable sort keeps ties in
   first-seen order, so the order is deterministic. *)
let clause_cost (clause : Planner.planned_clause) =
  List.fold_left
    (fun acc { Planner.home; _ } ->
      match home with Planner.Local _ -> acc +. 1.0 | Planner.Cross _ -> acc +. 8.0)
    0.0 clause.Planner.atoms

let run cluster ?(delivery = Executor.Glsns) ?(failure_mode = Executor.Fail)
    ?conjunction ~auditor criteria_list =
  let net = Cluster.net cluster in
  let before = Net.Network.stats net in
  let normalized = List.map Query.normalize criteria_list in
  match Planner.plan_many (Cluster.fragmentation cluster) normalized with
  | Error _ as e -> e
  | Ok multi ->
    Obs.Metrics.incr ~by:multi.Planner.dedup_atoms "audit.dedup_atoms";
    Obs.Metrics.incr ~by:multi.Planner.dedup_clauses "audit.dedup_clauses";
    Smc.Proto_util.span net "session.audit" @@ fun () ->
    let cache = Executor.cache_create () in
    (* Phase 1 — pipeline the batch's unique clauses.  Every distinct
       SQ_i across all criteria is taken once, stably sorted by estimated
       cost, and evaluated into the session cache.  Execution itself
       stays strictly sequential (so transcripts are byte-identical to
       the sequential engine); {!Net.Runtime.Pipeline} overlays a
       virtual-time schedule in which clauses with disjoint storage
       footprints overlap, bounded by the configured depth. *)
    let pipeline =
      Net.Runtime.Pipeline.create
        ~max_depth:(Net.Network.config net).Net.Config.max_pipeline_depth ()
    in
    let seen = Hashtbl.create 16 in
    let unique =
      List.concat_map (fun plan -> plan.Planner.clauses) multi.Planner.plans
      |> List.filter (fun clause ->
             let key = Planner.planned_clause_key clause in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.add seen key ();
               true
             end)
    in
    List.iter
      (fun clause ->
        let vt_before = Net.Network.virtual_time_ms net in
        Executor.warm_clause cluster ~on_failure:failure_mode ~cache clause;
        let vt_after = Net.Network.virtual_time_ms net in
        Net.Runtime.Pipeline.submit pipeline
          ~resources:
            (List.map Net.Node_id.to_string (Planner.clause_resources clause))
          ~duration_ms:(vt_after -. vt_before))
      (List.stable_sort
         (fun a b -> Float.compare (clause_cost a) (clause_cost b))
         unique);
    let preport = Net.Runtime.Pipeline.report pipeline in
    Obs.Metrics.incr ~by:preport.Net.Runtime.Pipeline.jobs
      "audit.pipeline.clauses";
    Obs.Metrics.set_max "audit.pipeline.depth.max"
      preport.Net.Runtime.Pipeline.peak_depth;
    (* Virtual-time totals as integer microseconds: deterministic under
       a fixed seed, so the bench's counter baselines pin them. *)
    Obs.Metrics.incr
      ~by:
        (int_of_float
           (preport.Net.Runtime.Pipeline.sequential_ms *. 1000.0))
      "audit.pipeline.virtual_sequential_us";
    Obs.Metrics.incr
      ~by:
        (int_of_float (preport.Net.Runtime.Pipeline.pipelined_ms *. 1000.0))
      "audit.pipeline.virtual_pipelined_us";
    (* Phase 2 — per-query conjunction and delivery.  Each execution
       serves its clauses from the cache, paying only its own ∩ₛ and
       final transfer. *)
    let rec exec acc = function
      | [] -> Ok (List.rev acc)
      | criteria :: rest -> (
        match
          Executor.run cluster ~delivery ~on_failure:failure_mode ~cache
            ?conjunction ~auditor criteria
        with
        | Error _ as e -> e
        | Ok report ->
          exec
            ({
               criteria;
               matching = report.Executor.matching;
               count = report.Executor.count;
               c_auditing = report.Executor.c_auditing;
               coverage = report.Executor.coverage;
             }
            :: acc)
            rest)
    in
    (match exec [] criteria_list with
    | Error _ as e -> e
    | Ok entries ->
      let after = Net.Network.stats net in
      Ok
        {
          entries;
          unique_atoms = multi.Planner.unique_atoms;
          unique_clauses = multi.Planner.unique_clauses;
          dedup_atoms = multi.Planner.dedup_atoms;
          dedup_clauses = multi.Planner.dedup_clauses;
          cache_hits = Executor.cache_hits cache;
          messages = after.Net.Network.messages - before.Net.Network.messages;
          bytes = after.Net.Network.bytes - before.Net.Network.bytes;
          rounds = after.Net.Network.rounds - before.Net.Network.rounds;
          pipeline = preport;
        })

let run_strings cluster ?delivery ?failure_mode ?conjunction ~auditor inputs =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | input :: rest -> (
      match Query.parse input with
      | Ok criteria -> parse (criteria :: acc) rest
      | Error message -> Error (Audit_error.Parse_error { input; message }))
  in
  match parse [] inputs with
  | Error _ as e -> e
  | Ok criteria_list ->
    run cluster ?delivery ?failure_mode ?conjunction ~auditor criteria_list

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>session: %d criteria, %d unique clauses (%d clause dups, %d atom \
     dups eliminated)@ cache: %d glsn-set hits@ cost: %d messages, %d bytes, \
     %d rounds@ pipeline: %d clause job(s), depth %d, %.1f ms sequential -> \
     %.1f ms pipelined@ %a@]"
    (List.length s.entries) s.unique_clauses s.dedup_clauses s.dedup_atoms
    s.cache_hits s.messages s.bytes s.rounds s.pipeline.Net.Runtime.Pipeline.jobs
    s.pipeline.Net.Runtime.Pipeline.peak_depth
    s.pipeline.Net.Runtime.Pipeline.sequential_ms
    s.pipeline.Net.Runtime.Pipeline.pipelined_ms
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ ")
       (fun fmt e ->
         Format.fprintf fmt "%s -> %d record(s)%s"
           (Query.to_string e.criteria)
           e.count
           (if e.coverage.Executor.complete then "" else " (partial coverage)")))
    s.entries
