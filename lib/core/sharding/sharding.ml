type shard = { index : int; name : string; cluster : Cluster.t }

type t = {
  shards : shard array;
  fabric : Net.Network.t;
  rng : Numtheory.Prng.t;
  tickets : (int * string, Ticket.t) Hashtbl.t;
}

(* 32-bit FNV-1a over the principal's identity: specified here byte for
   byte (unlike [Hashtbl.hash]), so a user's home shard is stable across
   process runs. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

(* The fixed layout: shard i owns the [range_width] glsns from
   [glsn_start + i·range_width].  Shard 0 starts at the paper's first
   glsn, so a 1-shard fleet numbers its records exactly like the
   unsharded cluster. *)
let glsn_start = 0x139aef78
let range_width = 1 lsl 20
let ingest_ttl = 10_000_000

let create ?(seed = 0) ?net_of ~shards:count fragmentation =
  if count < 1 then invalid_arg "Sharding.create: shards < 1";
  let net_of =
    match net_of with
    | Some f -> f
    | None -> fun i -> Net.Network.of_config (Net.Config.make ~seed:(seed + (131 * i)) ())
  in
  let shards =
    Array.init count (fun i ->
        let cluster =
          Cluster.create ~seed:(seed + i) ~net:(net_of i)
            ~glsn_start:(glsn_start + (i * range_width))
            fragmentation
        in
        { index = i; name = Printf.sprintf "shard%d" i; cluster })
  in
  {
    shards;
    fabric = Net.Network.of_config (Net.Config.make ~seed:(seed + 977) ());
    rng = Numtheory.Prng.create ~seed:(seed + 1031);
    tickets = Hashtbl.create 64;
  }

let shards t = Array.to_list t.shards
let shard_count t = Array.length t.shards

let owner_of t glsn =
  let offset = Glsn.to_int glsn - glsn_start in
  if offset < 0 || offset / range_width >= Array.length t.shards then None
  else Some t.shards.(offset / range_width)

let shard_of_user t origin =
  let n = Array.length t.shards in
  t.shards.(fnv1a (Net.Node_id.to_string origin) mod n)

let ticket_for t shard origin =
  let key = (shard.index, Net.Node_id.to_string origin) in
  match Hashtbl.find_opt t.tickets key with
  | Some ticket when Result.is_ok (Cluster.verify_ticket shard.cluster ticket)
    ->
    ticket
  | _ ->
    let ticket =
      Cluster.issue_ticket shard.cluster
        ~id:(Printf.sprintf "shard-ingest:%s" (Net.Node_id.to_string origin))
        ~principal:origin
        ~rights:[ Ticket.Read; Ticket.Write ]
        ~ttl:ingest_ttl
    in
    Hashtbl.replace t.tickets key ticket;
    ticket

let submit t ~origin ~attributes =
  let shard = shard_of_user t origin in
  let ticket = ticket_for t shard origin in
  match Cluster.submit shard.cluster ~ticket ~origin ~attributes with
  | Cluster.Rejected reason -> Error reason
  | Cluster.Committed glsn | Cluster.Committed_degraded (glsn, _) ->
    (* The allocator starts at the range's lower bound and is strictly
       monotonic, so an out-of-range glsn means the shard is full — a
       capacity-planning error, not a recoverable submit failure. *)
    if Glsn.to_int glsn >= glsn_start + ((shard.index + 1) * range_width) then
      invalid_arg
        (Printf.sprintf "Sharding.submit: %s glsn range exhausted at %s"
           shard.name (Glsn.to_string glsn))
    else Ok (shard, glsn)

let record_count t =
  Array.fold_left (fun acc s -> acc + Cluster.record_count s.cluster) 0 t.shards

let all_glsns t =
  (* Ranges are disjoint and the array is in layout order, so per-shard
     ascending lists concatenate to a globally ascending list. *)
  List.concat_map (fun s -> Cluster.all_glsns s.cluster) (Array.to_list t.shards)

(* ------------------------------------------------------------------ *)
(* Scatter-gather fabric                                               *)
(* ------------------------------------------------------------------ *)

(* The one fleet fan-out, shared by every fleet audit.  The coordinator
   fans [work shard] out to every shard and collects the replies,
   accounted as one Scatter and one Gather fabric message per shard.
   Shards run in layout order, and every shard runs even when an
   earlier one fails; the first error in layout order wins.  Otherwise
   [merge] combines the [(name, reply)] list, in layout order, with the
   fabric messages charged.  One shard is the unsharded call: no
   fabric message, no [shard.*] span or counter.  The fabric carries
   criteria out and verdict metadata back, never record data.  The
   [shard.scatter] and [shard.gather] spans run on the fabric's clock,
   and each [shard.audit.<name>] span on its shard's. *)
let scatter_gather t work merge =
  match t.shards with
  | [| shard |] ->
    Result.map
      (fun reply -> merge [ (shard.name, reply) ] ~cross_shard_msgs:0)
      (work shard)
  | shards -> (
    let clock_on net =
      Obs.Trace.set_clock (fun () -> Net.Network.virtual_time_ms net)
    in
    clock_on t.fabric;
    Obs.Trace.with_span "shard.scatter" (fun () ->
        Obs.Metrics.incr ~by:(Array.length shards) "audit.cross_shard_msgs");
    let replies =
      Array.map
        (fun shard ->
          Obs.Metrics.incr (Printf.sprintf "shard.scatter.%s" shard.name);
          clock_on (Cluster.net shard.cluster);
          let reply =
            Obs.Trace.with_span (Printf.sprintf "shard.audit.%s" shard.name)
              (fun () -> work shard)
          in
          Obs.Metrics.incr "audit.cross_shard_msgs";
          reply)
        shards
    in
    Array.iter
      (fun shard ->
        Obs.Metrics.incr (Printf.sprintf "shard.gather.%s" shard.name))
      shards;
    let rec collect i =
      if i = Array.length shards then Ok []
      else
        match replies.(i) with
        | Error e -> Error e
        | Ok reply ->
          Result.map
            (fun rest -> (shards.(i).name, reply) :: rest)
            (collect (i + 1))
    in
    Result.map
      (fun per_shard ->
        clock_on t.fabric;
        Obs.Trace.with_span "shard.gather" (fun () ->
            merge per_shard ~cross_shard_msgs:(2 * Array.length shards)))
      (collect 0))

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let merge_matching f xs = List.sort Glsn.compare (List.concat_map f xs)

let merge_audits criteria (per_shard : (string * Auditor_engine.audit) list) =
  let audits = List.map snd per_shard in
  let first = List.hd audits in
  let matching = merge_matching (fun a -> a.Auditor_engine.matching) audits in
  let count = sum (fun a -> a.Auditor_engine.count) audits in
  (* Every shard shares the fragmentation map, so the plans — and eq
     11's s, t, q — are identical; C_auditing is any shard's. *)
  {
    Auditor_engine.criteria;
    matching;
    count;
    c_auditing = first.Auditor_engine.c_auditing;
    coverage =
      Executor.merge_coverage
        (List.map (fun a -> a.Auditor_engine.coverage) audits);
    messages = sum (fun a -> a.Auditor_engine.messages) audits;
    bytes = sum (fun a -> a.Auditor_engine.bytes) audits;
    rounds = sum (fun a -> a.Auditor_engine.rounds) audits;
  }

(* ------------------------------------------------------------------ *)
(* Scatter-gather audits                                               *)
(* ------------------------------------------------------------------ *)

type audit = {
  merged : Auditor_engine.audit;
  per_shard : (string * Auditor_engine.audit) list;
  cross_shard_msgs : int;
}

let audit t ?delivery ~auditor request =
  match Auditor_engine.criteria_of_request request with
  | Error _ as e -> e
  | Ok criteria ->
    scatter_gather t
      (fun shard ->
        Auditor_engine.run shard.cluster ?delivery ~auditor (Criteria criteria))
      (fun per_shard ~cross_shard_msgs ->
        {
          merged = merge_audits criteria per_shard;
          per_shard;
          cross_shard_msgs;
        })

(* ------------------------------------------------------------------ *)
(* Batched sessions                                                    *)
(* ------------------------------------------------------------------ *)

type session = {
  merged : Audit_session.summary;
  per_shard : (string * Audit_session.summary) list;
  cross_shard_msgs : int;
}

let merge_entries (entries : Audit_session.entry list) =
  let first = List.hd entries in
  {
    Audit_session.criteria = first.Audit_session.criteria;
    matching = merge_matching (fun e -> e.Audit_session.matching) entries;
    count = sum (fun e -> e.Audit_session.count) entries;
    c_auditing = first.Audit_session.c_auditing;
    coverage =
      Executor.merge_coverage
        (List.map (fun e -> e.Audit_session.coverage) entries);
  }

let merge_summaries (per_shard : (string * Audit_session.summary) list) =
  let summaries = List.map snd per_shard in
  let first = List.hd summaries in
  let rec transpose rows =
    match rows with
    | [] | [] :: _ -> []
    | _ ->
      List.map List.hd rows :: transpose (List.map List.tl rows)
  in
  let entries =
    transpose (List.map (fun s -> s.Audit_session.entries) summaries)
    |> List.map merge_entries
  in
  {
    Audit_session.entries;
    (* Joint-planning stats are per-batch properties of the shared
       fragmentation map — identical on every shard, reported once. *)
    unique_atoms = first.Audit_session.unique_atoms;
    unique_clauses = first.Audit_session.unique_clauses;
    dedup_atoms = first.Audit_session.dedup_atoms;
    dedup_clauses = first.Audit_session.dedup_clauses;
    cache_hits = sum (fun s -> s.Audit_session.cache_hits) summaries;
    messages = sum (fun s -> s.Audit_session.messages) summaries;
    bytes = sum (fun s -> s.Audit_session.bytes) summaries;
    rounds = sum (fun s -> s.Audit_session.rounds) summaries;
    (* Shards run their phase-1 pipelines independently, so the merged
       schedule sums the work and makespan while the depth reports the
       deepest overlap any single pipeline reached. *)
    pipeline =
      {
        Net.Runtime.Pipeline.jobs =
          sum (fun s -> s.Audit_session.pipeline.Net.Runtime.Pipeline.jobs)
            summaries;
        peak_depth =
          List.fold_left
            (fun acc s ->
              max acc s.Audit_session.pipeline.Net.Runtime.Pipeline.peak_depth)
            0 summaries;
        sequential_ms =
          List.fold_left
            (fun acc s ->
              acc
              +. s.Audit_session.pipeline.Net.Runtime.Pipeline.sequential_ms)
            0.0 summaries;
        pipelined_ms =
          List.fold_left
            (fun acc s ->
              acc
              +. s.Audit_session.pipeline.Net.Runtime.Pipeline.pipelined_ms)
            0.0 summaries;
      };
  }

let run_session t ~auditor queries =
  scatter_gather t
    (fun shard ->
      (* Each shard's session makes its own fresh per-session cache,
         exactly as the unsharded session would. *)
      Audit_session.run shard.cluster ~auditor queries)
    (fun per_shard ~cross_shard_msgs ->
      { merged = merge_summaries per_shard; per_shard; cross_shard_msgs })

(* ------------------------------------------------------------------ *)
(* Fleet aggregates                                                    *)
(* ------------------------------------------------------------------ *)

let secret_count_total t ~auditor ~criteria =
  if Array.length t.shards = 1 then
    match
      Auditor_engine.run t.shards.(0).cluster ~delivery:Executor.Count_only
        ~auditor (Text criteria)
    with
    | Error e -> Error (Audit_error.to_string e)
    | Ok a -> Ok a.Auditor_engine.count
  else
    let members =
      List.map
        (fun s -> Federation.member ~name:s.name s.cluster)
        (Array.to_list t.shards)
    in
    Federation.secret_count_total ~net:t.fabric ~rng:t.rng ~auditor ~criteria
      members

(* ------------------------------------------------------------------ *)
(* Sharded secret-shared columns                                       *)
(* ------------------------------------------------------------------ *)

module Column = struct
  type sharding = t

  type t = {
    fleet : sharding;
    attr : Attribute.t;
    columns : Shared_column.t array;  (* one per shard, layout order *)
    recorded : int array;  (* values dealt into each shard's column *)
  }

  let create fleet ~attr ~k =
    {
      fleet;
      attr;
      columns =
        Array.map
          (fun s -> Shared_column.create s.cluster ~attr ~k)
          fleet.shards;
      recorded = Array.make (Array.length fleet.shards) 0;
    }

  let attr t = t.attr

  let record t ?dealer ~glsn value =
    match owner_of t.fleet glsn with
    | None ->
      invalid_arg
        (Printf.sprintf "Sharding.Column.record: glsn %s owned by no shard"
           (Glsn.to_string glsn))
    | Some shard ->
      Shared_column.record t.columns.(shard.index) ?dealer ~glsn value;
      t.recorded.(shard.index) <- t.recorded.(shard.index) + 1

  let add a b =
    match (a, b) with
    | Value.Int x, Value.Int y -> Value.Int (x + y)
    | Value.Money x, Value.Money y -> Value.Money (x + y)
    | Value.Time x, Value.Time y -> Value.Time (x + y)
    | _ -> invalid_arg "Sharding.Column.secret_total: mixed value kinds"

  let secret_total t ?over ~auditor () =
    let selected shard =
      match over with
      | None -> None
      | Some glsns ->
        Some
          (List.filter
             (fun g ->
               match owner_of t.fleet g with
               | Some s -> s.index = shard
               | None -> false)
             glsns)
    in
    let totals =
      Array.to_list t.fleet.shards
      |> List.filter_map (fun s ->
             if t.recorded.(s.index) = 0 then None
             else
               let over = selected s.index in
               match over with
               | Some [] -> None
               | _ ->
                 Some
                   (Shared_column.secret_total t.columns.(s.index) ?over
                      ~auditor ()))
    in
    match totals with
    | [] -> Value.Int 0
    | first :: rest -> List.fold_left add first rest
end

(* ------------------------------------------------------------------ *)
(* Byzantine-tolerant fleet audits                                     *)
(* ------------------------------------------------------------------ *)

type byzantine = {
  outcomes : (string * Byzantine.outcome) list;
  matching : Glsn.t list;
  count : int;
  coverage : Executor.coverage;
  attempts : int;
  quarantined : (string * Net.Node_id.t) list;
  verify_msgs : int;
  verify_bytes : int;
  cross_shard_msgs : int;
}

let byzantine_audit t ~auditor query =
  scatter_gather t
    (fun shard -> Byzantine.audit shard.cluster ~auditor query)
    (fun outcomes ~cross_shard_msgs ->
      let os = List.map snd outcomes in
      let reports = List.map (fun o -> o.Byzantine.report) os in
      {
        outcomes;
        matching = merge_matching (fun r -> r.Executor.matching) reports;
        count = sum (fun r -> r.Executor.count) reports;
        coverage =
          Executor.merge_coverage
            (List.map (fun r -> r.Executor.coverage) reports);
        attempts =
          List.fold_left (fun acc o -> max acc o.Byzantine.attempts) 0 os;
        quarantined =
          List.concat_map
            (fun (name, o) ->
              List.map (fun n -> (name, n)) o.Byzantine.quarantined)
            outcomes;
        verify_msgs = sum (fun o -> o.Byzantine.verify_msgs) os;
        verify_bytes = sum (fun o -> o.Byzantine.verify_bytes) os;
        cross_shard_msgs;
      })
