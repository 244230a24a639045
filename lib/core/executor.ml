open Numtheory

type delivery = Glsns | Count_only

type failure_mode = Fail | Degrade

type coverage = {
  complete : bool;
  unreachable : Net.Node_id.t list;
  skipped_atoms : int;
  skipped_clauses : int;
  evaluated_clauses : int;
  total_clauses : int;
  repaired : (Net.Node_id.t * Glsn.t) list;
}

type report = {
  criteria : Query.t;
  plan : Planner.t;
  matching : Glsn.t list;
  count : int;
  c_auditing : float;
  coverage : coverage;
}

let full_coverage ~total_clauses =
  {
    complete = true;
    unreachable = [];
    skipped_atoms = 0;
    skipped_clauses = 0;
    evaluated_clauses = total_clauses;
    total_clauses;
    repaired = [];
  }

(* Identity on a singleton, so a one-shard gather reports exactly the
   coverage the unsharded path would.  Node-id lists are deduplicated in
   canonical order: the same node may be unreachable from several
   shards' perspectives but is one fact for the merged report. *)
let merge_coverage = function
  | [] -> invalid_arg "Executor.merge_coverage: empty"
  | [ c ] -> c
  | cs ->
    {
      complete = List.for_all (fun c -> c.complete) cs;
      unreachable =
        List.sort_uniq Net.Node_id.compare
          (List.concat_map (fun c -> c.unreachable) cs);
      skipped_atoms = List.fold_left (fun a c -> a + c.skipped_atoms) 0 cs;
      skipped_clauses = List.fold_left (fun a c -> a + c.skipped_clauses) 0 cs;
      evaluated_clauses =
        List.fold_left (fun a c -> a + c.evaluated_clauses) 0 cs;
      total_clauses = List.fold_left (fun a c -> a + c.total_clauses) 0 cs;
      repaired = List.concat_map (fun c -> c.repaired) cs;
    }

(* Order-preserving numeric embedding for blinded comparison.  Numeric
   kinds embed as their integer value; strings embed as big-endian bytes
   zero-padded to a common batch width, which preserves lexicographic
   order (values must not contain NUL, which the workloads guarantee). *)
let embed ~pad value =
  match value with
  | Value.Int v | Value.Money v | Value.Time v -> Bignum.of_int v
  | Value.Str s ->
    let padded = s ^ String.make (max 0 (pad - String.length s)) '\000' in
    Bignum.of_bytes_be padded

let value_pad values =
  List.fold_left
    (fun acc v ->
      match v with Value.Str s -> max acc (String.length s) | _ -> acc)
    0 values

let glsn_set_bytes set = 8 * Glsn.Set.cardinal set

let send_glsn_set net ~src ~dst ~label set =
  if not (Net.Node_id.equal src dst) then
    Net.Network.send_exn net ~src ~dst ~label ~bytes:(glsn_set_bytes set);
  Net.Ledger.record (Net.Network.ledger net) ~node:dst
    ~sensitivity:Net.Ledger.Metadata ~tag:label
    (String.concat ","
       (List.map Glsn.to_string (Glsn.Set.elements set)))

(* A local atom evaluated entirely at its home node. *)
let eval_local_atom store (atom : Query.atom) =
  match atom.Query.rhs with
  | Query.Const c ->
    List.fold_left
      (fun acc (glsn, v) ->
        if Value.comparable v c
           && Query.apply_comparison atom.Query.op (Value.compare_semantic v c)
        then Glsn.Set.add glsn acc
        else acc)
      Glsn.Set.empty
      (Storage.column store atom.Query.attr)
  | Query.Attr b ->
    List.fold_left
      (fun acc glsn ->
        match Storage.fragment_of store glsn with
        | None -> acc
        | Some fragment -> (
          match
            (List.assoc_opt atom.Query.attr fragment, List.assoc_opt b fragment)
          with
          | Some va, Some vb
            when Value.comparable va vb
                 && Query.apply_comparison atom.Query.op
                      (Value.compare_semantic va vb)
            -> Glsn.Set.add glsn acc
          | _ -> acc))
      Glsn.Set.empty (Storage.glsns store)

(* A cross atom: both homes blind their columns with a shared secret
   monotone transform and ship them to the blind TTP, which filters by
   the comparison and returns the satisfying glsn set to the clause
   home. *)
let eval_cross_atom cluster ~ttp ~clause_home (atom : Query.atom) ~left ~right
    rhs_attr =
  let net = Cluster.net cluster in
  let ledger = Net.Network.ledger net in
  let left_store = Cluster.store_of cluster left in
  let right_store = Cluster.store_of cluster right in
  let left_col = Storage.column left_store atom.Query.attr in
  let right_col = Storage.column right_store rhs_attr in
  (* Homes agree on the secret transform (one negotiation message). *)
  Net.Network.send_exn net ~src:left ~dst:right ~label:"query:negotiate"
    ~bytes:16;
  Net.Network.round ~label:"query" net;
  let blind = Crypto.Blinding.generate_monotone (Cluster.rng cluster) ~bits:64 in
  let pad =
    max (value_pad (List.map snd left_col)) (value_pad (List.map snd right_col))
  in
  let blind_column src col =
    let blinded =
      List.map
        (fun (glsn, v) ->
          ( glsn,
            Value.comparison_class v,
            Crypto.Blinding.apply_monotone blind (embed ~pad v) ))
        col
    in
    let bytes =
      List.fold_left
        (fun acc (_, _, w) -> acc + Smc.Proto_util.bignum_wire_size w + 9)
        0 blinded
    in
    Net.Network.send_exn net ~src ~dst:ttp ~label:"query:cross-column" ~bytes;
    List.iter
      (fun (_, _, w) ->
        Net.Ledger.record ledger ~node:ttp ~sensitivity:Net.Ledger.Blinded
          ~tag:"query:cross-column" (Bignum.to_string w))
      blinded;
    blinded
  in
  let left_blinded = blind_column left left_col in
  let right_blinded = blind_column right right_col in
  Net.Network.round ~label:"query" net;
  (* The TTP joins the two columns on glsn: one pass over each. *)
  let right_by_glsn = Hashtbl.create (List.length right_blinded) in
  List.iter
    (fun (glsn, kind, w) ->
      if not (Hashtbl.mem right_by_glsn glsn) then
        Hashtbl.add right_by_glsn glsn (kind, w))
    right_blinded;
  let satisfied =
    List.fold_left
      (fun acc (glsn, kind_l, wl) ->
        match Hashtbl.find_opt right_by_glsn glsn with
        | Some (kind_r, wr)
          when String.equal kind_l kind_r
               && Query.apply_comparison atom.Query.op (Bignum.compare wl wr)
          -> Glsn.Set.add glsn acc
        | Some _ | None -> acc)
      Glsn.Set.empty left_blinded
  in
  send_glsn_set net ~src:ttp ~dst:clause_home ~label:"query:cross-result"
    satisfied;
  Net.Network.round ~label:"query" net;
  satisfied

(* Degraded-coverage bookkeeping: the nodes that could not serve and
   the atoms skipped because of them. *)
type degrade_ctx = {
  mutable down : Net.Node_id.Set.t;
  mutable n_skipped_atoms : int;
}

let empty_ctx () = { down = Net.Node_id.Set.empty; n_skipped_atoms = 0 }

let mark_unreachable ctx nodes =
  List.iter (fun n -> ctx.down <- Net.Node_id.Set.add n ctx.down) nodes

let skip_atom ctx nodes =
  Obs.Metrics.incr "executor.atoms.skipped";
  ctx.n_skipped_atoms <- ctx.n_skipped_atoms + 1;
  mark_unreachable ctx nodes

(* ------------------------------------------------------------------ *)
(* Session glsn-set cache                                              *)
(* ------------------------------------------------------------------ *)

(* One memoized glsn set.  [complete = false] marks an entry evaluated
   under Degrade with nodes down: [entry_unreachable] lists every node
   its evaluation skipped and [entry_skipped] counts the skipped atoms —
   the coverage debt that any reuse must surface in its own report. *)
type cache_entry = {
  cached_set : Glsn.Set.t;
  complete : bool;
  entry_unreachable : Net.Node_id.t list;
  entry_skipped : int;
  sources : Net.Node_id.t list;
      (* provenance: every node whose honesty the set depends on — if
         one of them is later quarantined, the entry is tainted and
         must be recomputed, never served *)
}

type cache = {
  atom_tbl : (string, cache_entry) Hashtbl.t;
  clause_tbl : (string, cache_entry) Hashtbl.t;
  mutable hits : int;
}

let cache_create () =
  { atom_tbl = Hashtbl.create 32; clause_tbl = Hashtbl.create 16; hits = 0 }

let cache_hits cache = cache.hits
let cache_entries cache =
  (Hashtbl.length cache.atom_tbl, Hashtbl.length cache.clause_tbl)

(* A complete entry is always reusable.  An incomplete one is reusable
   only while every node it skipped is *still* unavailable — once a node
   recovers, the predicate must be re-evaluated (under Fail, [available]
   is constantly true, so incomplete entries are never reused). *)
let cache_usable ~available entry =
  entry.complete
  || List.for_all (fun node -> not (available node)) entry.entry_unreachable

(* Hits are counted by the caller: query traffic counts them, delta
   maintenance and cache warming do not. *)
let cache_lookup tbl ~available ~trusted key =
  match Hashtbl.find_opt tbl key with
  | None -> None
  | Some entry ->
    if not (List.for_all trusted entry.sources) then begin
      (* tainted: a contributing node has been quarantined since this
         set was computed — drop the entry rather than serving a value
         a liar helped assemble *)
      Hashtbl.remove tbl key;
      Obs.Metrics.incr "audit.cache_invalidated";
      None
    end
    else if cache_usable ~available entry then Some entry
    else None

let count_hit cache =
  cache.hits <- cache.hits + 1;
  Obs.Metrics.incr "audit.cache_hit"

let cache_purge cache ~nodes =
  let tainted entry =
    List.exists
      (fun s -> List.exists (Net.Node_id.equal s) nodes)
      entry.sources
  in
  let purge tbl =
    let doomed =
      Hashtbl.fold
        (fun key entry acc -> if tainted entry then key :: acc else acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) doomed;
    List.length doomed
  in
  let removed = purge cache.atom_tbl + purge cache.clause_tbl in
  Obs.Metrics.incr ~by:removed "audit.cache_invalidated";
  removed

(* ---- delta surface for the continuous-audit engine ---------------- *)

type cached_set = {
  glsns : Glsn.Set.t;
  is_complete : bool;
  missing_nodes : Net.Node_id.t list;
  depends_on : Net.Node_id.t list;
}

let cache_view entry =
  {
    glsns = entry.cached_set;
    is_complete = entry.complete;
    missing_nodes = entry.entry_unreachable;
    depends_on = entry.sources;
  }

let cache_lookup_clause cache ~available ~trusted key =
  Option.map cache_view (cache_lookup cache.clause_tbl ~available ~trusted key)

let cache_insert_glsn tbl ~key glsn =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some entry ->
    Hashtbl.replace tbl key
      { entry with cached_set = Glsn.Set.add glsn entry.cached_set };
    true

let cache_insert_glsn_atom cache ~key glsn =
  cache_insert_glsn cache.atom_tbl ~key glsn

let cache_insert_glsn_clause cache ~key glsn =
  cache_insert_glsn cache.clause_tbl ~key glsn

let cache_drop_atom cache ~key = Hashtbl.remove cache.atom_tbl key
let cache_drop_clause cache ~key = Hashtbl.remove cache.clause_tbl key

let cache_remove_glsn cache glsn =
  let strip tbl =
    let touched = ref 0 in
    Hashtbl.iter
      (fun key entry ->
        if Glsn.Set.mem glsn entry.cached_set then begin
          incr touched;
          Hashtbl.replace tbl key
            { entry with cached_set = Glsn.Set.remove glsn entry.cached_set }
        end)
      tbl;
    !touched
  in
  strip cache.atom_tbl + strip cache.clause_tbl

let atom_sources = function
  | Planner.Local node -> [ node ]
  | Planner.Cross { left; right } -> [ left; right ]

let clause_sources ~home (clause : Planner.planned_clause) =
  Net.Node_id.Set.elements
    (List.fold_left
       (fun acc { Planner.home = atom_home; _ } ->
         List.fold_left
           (fun acc n -> Net.Node_id.Set.add n acc)
           acc (atom_sources atom_home))
       (Net.Node_id.Set.singleton home)
       clause.Planner.atoms)

(* Evaluate one clause at [home].  [available] decides which nodes can
   serve; atoms whose nodes cannot are skipped and recorded in [ctx]. *)
let eval_clause cluster ~ttp ~catch_partition ~available ~trusted ~ctx ~cache
    ~home (clause : Planner.planned_clause) =
  let net = Cluster.net cluster in
  Obs.Trace.with_span "executor.clause" @@ fun () ->
  List.fold_left
    (fun acc { Planner.atom; home = atom_home } ->
      let eval () =
        match atom_home with
        | Planner.Local node ->
          if not (available node) then begin
            skip_atom ctx [ node ];
            None
          end
          else begin
            Obs.Metrics.incr "executor.atoms.local";
            let set = eval_local_atom (Cluster.store_of cluster node) atom in
            if not (Net.Node_id.equal node home) then begin
              send_glsn_set net ~src:node ~dst:home ~label:"query:local-result"
                set;
              Net.Network.round net
            end;
            Some set
          end
        | Planner.Cross { left; right } -> (
          match atom.Query.rhs with
          | Query.Attr rhs_attr ->
            let down = List.filter (fun n -> not (available n)) [ left; right ] in
            if down <> [] then begin
              skip_atom ctx down;
              None
            end
            else begin
              Obs.Metrics.incr "executor.atoms.cross";
              Some
                (eval_cross_atom cluster ~ttp ~clause_home:home atom ~left
                   ~right rhs_attr)
            end
          | Query.Const _ -> assert false (* planner never crosses a const *))
      in
      let eval_and_memo () =
        (* Under degraded execution a mid-protocol drop (loss) converts
           into a skipped atom instead of an aborted audit. *)
        let computed =
          if catch_partition then
            try eval () with
            | Net.Network.Partitioned { dst; _ } ->
              skip_atom ctx [ dst ];
              None
          else eval ()
        in
        (match (computed, cache) with
        | Some set, Some c ->
          Hashtbl.replace c.atom_tbl (Planner.atom_key atom)
            {
              cached_set = set;
              complete = true;
              entry_unreachable = [];
              entry_skipped = 0;
              sources = atom_sources atom_home;
            }
        | _ -> ());
        computed
      in
      let set =
        (* A session-cache hit reuses the memoized glsn set: the atom's
           SMC work (blinding, TTP round, local-result transfer) is
           skipped entirely.  Atom entries are only ever stored after a
           successful evaluation, so they are always complete. *)
        match cache with
        | None -> eval_and_memo ()
        | Some c -> (
          match
            cache_lookup c.atom_tbl ~available ~trusted (Planner.atom_key atom)
          with
          | Some entry ->
            count_hit c;
            Some entry.cached_set
          | None -> eval_and_memo ())
      in
      match set with None -> acc | Some set -> Glsn.Set.union acc set)
    Glsn.Set.empty clause.Planner.atoms

(* An entirely unevaluated disjunction is unknowable: it has no set to
   store or to intersect. *)
let all_atoms_skipped (clause : Planner.planned_clause) entry =
  entry.entry_skipped >= List.length clause.Planner.atoms

(* Serve one clause's glsn set; shared by [run] and [warm_clause].  The
   union is assembled at the clause's planned home, or at a stand-in when
   degraded — glsn sets are Definition-1 metadata, so re-homing the
   union never widens plaintext observation.  A usable cached entry is
   served as is; otherwise the clause is evaluated and its entry stored.
   [None] means no live node can assemble the union; otherwise the
   result is the home, the entry, and whether it came from the cache. *)
let clause_step cluster ~ttp ~on_failure ~cache
    (clause : Planner.planned_clause) =
  let trusted node = not (Cluster.is_quarantined cluster node) in
  let available node =
    match on_failure with
    | Fail -> true (* unavailability surfaces as Partitioned *)
    | Degrade ->
      (* a quarantined node is fenced exactly like a crashed one: atoms
         it homes are skipped and the coverage report names it *)
      Net.Network.is_up (Cluster.net cluster) node && trusted node
  in
  let home =
    let planned = clause.Planner.clause_home in
    if available planned then Some planned
    else List.find_opt available (Cluster.nodes cluster)
  in
  match home with
  | None -> None
  | Some home -> (
    let key = Planner.planned_clause_key clause in
    match
      Option.bind cache (fun c ->
          cache_lookup c.clause_tbl ~available ~trusted key)
    with
    | Some entry -> Some (home, entry, true)
    | None ->
      (* A context of its own, so the entry names every node this clause
         skipped, even one an earlier clause already found down. *)
      let ctx = empty_ctx () in
      let set =
        eval_clause cluster ~ttp ~catch_partition:(on_failure = Degrade)
          ~available ~trusted ~ctx ~cache ~home clause
      in
      let entry =
        {
          cached_set = set;
          complete = ctx.n_skipped_atoms = 0;
          entry_unreachable = Net.Node_id.Set.elements ctx.down;
          entry_skipped = ctx.n_skipped_atoms;
          sources = clause_sources ~home clause;
        }
      in
      if not (all_atoms_skipped clause entry) then
        Option.iter (fun c -> Hashtbl.replace c.clause_tbl key entry) cache;
      Some (home, entry, false))

(* Default commutative scheme for the multi-home conjunction: the XOR
   pad, as always.  [?conjunction] lets a session swap in a real cipher
   (Pohlig–Hellman) — same protocol, same transcript shape, but the
   ring passes become modexp batches the reactor's domain pool can
   farm. *)
let default_conjunction rng =
  Crypto.Commutative.xor_pad rng (Crypto.Xor_pad.params ~width_bits:256)

let run cluster ?(ttp = Net.Node_id.Ttp "query") ?(delivery = Glsns)
    ?(on_failure = Fail) ?replication ?cache
    ?(conjunction = default_conjunction) ~auditor criteria =
  let normalized = Query.normalize criteria in
  match Planner.plan (Cluster.fragmentation cluster) normalized with
  | Error _ as e -> e
  | Ok plan ->
    Obs.Trace.set_clock (fun () ->
        Net.Network.virtual_time_ms (Cluster.net cluster));
    Obs.Trace.with_span "executor.audit" @@ fun () ->
    let net = Cluster.net cluster in
    let ledger = Net.Network.ledger net in
    (* Failover step: a node that is back up but lost rows (crash then
       recover) is repaired from its sealed replicas before it serves
       the audit — recovery targets the owner itself, so no other node's
       observations widen. *)
    let repaired =
      match (on_failure, replication) with
      | Degrade, Some replication ->
        let glsn_count = List.length (Cluster.all_glsns cluster) in
        List.concat_map
          (fun node ->
            let store = Cluster.store_of cluster node in
            if
              Net.Network.is_up net node
              && Storage.record_count store < glsn_count
            then
              Replication.repair_node ~retry:(Cluster.retry cluster)
                replication cluster ~node
            else [])
          (Cluster.nodes cluster)
      | _ -> []
    in
    Obs.Metrics.incr ~by:(List.length repaired) "executor.repaired";
    (* Evaluate every clause, collecting its glsn set at its home and
       folding its coverage debt into the run's.  A cached entry carries
       the debt it was stored with, so degraded reuse stays truthful. *)
    let ctx = empty_ctx () in
    let skip_clause () =
      Obs.Metrics.incr "executor.clauses.skipped";
      None
    in
    let clause_sets =
      List.filter_map
        (fun clause ->
          match clause_step cluster ~ttp ~on_failure ~cache clause with
          | None ->
            (* No live node can even assemble the union: the clause is
               uncovered. *)
            mark_unreachable ctx [ clause.Planner.clause_home ];
            skip_clause ()
          | Some (home, entry, from_cache) ->
            if from_cache then Option.iter count_hit cache;
            ctx.n_skipped_atoms <- ctx.n_skipped_atoms + entry.entry_skipped;
            mark_unreachable ctx entry.entry_unreachable;
            if all_atoms_skipped clause entry then
              (* Drop the clause from the conjunction rather than
                 intersecting with a spurious empty set; the coverage
                 report names it. *)
              skip_clause ()
            else Some (home, entry.cached_set))
        plan.Planner.clauses
    in
    (* Conjunction: first fold clauses that share a home locally, then
       secure-set-intersect across distinct homes (glsn as element). *)
    let by_home =
      List.fold_left
        (fun acc (home, set) ->
          match
            List.find_opt (fun (h, _) -> Net.Node_id.equal h home) acc
          with
          | Some (_, existing) ->
            (home, Glsn.Set.inter existing set)
            :: List.filter (fun (h, _) -> not (Net.Node_id.equal h home)) acc
          | None -> (home, set) :: acc)
        [] clause_sets
      |> List.rev
    in
    let final_set =
      match by_home with
      | [] -> Glsn.Set.empty
      | [ (_, only) ] -> only
      | parties ->
        let receiver = fst (List.hd parties) in
        let scheme = conjunction (Cluster.rng cluster) in
        let result =
          Smc.Set_intersection.run ~net ~scheme ~receiver
            (List.map
               (fun (home, set) ->
                 {
                   Smc.Set_intersection.node = home;
                   set = List.map Glsn.to_string (Glsn.Set.elements set);
                 })
               parties)
        in
        List.fold_left
          (fun acc s -> Glsn.Set.add (Glsn.of_string s) acc)
          Glsn.Set.empty result.Smc.Set_intersection.intersection
    in
    (* Deliver the final result to the auditor: the glsn list, or only
       its cardinality in secret-counting mode. *)
    let deliverer =
      match by_home with [] -> ttp | (home, _) :: _ -> home
    in
    (match delivery with
    | Glsns ->
      send_glsn_set net ~src:deliverer ~dst:auditor ~label:"query:final"
        final_set;
      List.iter
        (fun glsn ->
          Net.Ledger.record ledger ~node:auditor
            ~sensitivity:Net.Ledger.Aggregate ~tag:"query:final"
            (Glsn.to_string glsn))
        (Glsn.Set.elements final_set)
    | Count_only ->
      Net.Network.send_exn net ~src:deliverer ~dst:auditor
        ~label:"query:final-count" ~bytes:8;
      Net.Ledger.record ledger ~node:auditor ~sensitivity:Net.Ledger.Aggregate
        ~tag:"query:final-count"
        (string_of_int (Glsn.Set.cardinal final_set)));
    Net.Network.round ~label:"query" net;
    let s = float_of_int plan.Planner.total_atoms in
    let t = float_of_int plan.Planner.cross_atoms in
    let q = float_of_int plan.Planner.conjuncts in
    let c_auditing = if s +. q = 0.0 then 0.0 else (t +. q) /. (s +. q) in
    let matching =
      match delivery with
      | Glsns -> Glsn.Set.elements final_set
      | Count_only -> []
    in
    let total_clauses = List.length plan.Planner.clauses in
    let evaluated_clauses = List.length clause_sets in
    let coverage =
      if
        ctx.n_skipped_atoms = 0
        && evaluated_clauses = total_clauses
        && Net.Node_id.Set.is_empty ctx.down
      then { (full_coverage ~total_clauses) with repaired }
      else
        {
          complete = false;
          unreachable = Net.Node_id.Set.elements ctx.down;
          skipped_atoms = ctx.n_skipped_atoms;
          skipped_clauses = total_clauses - evaluated_clauses;
          evaluated_clauses;
          total_clauses;
          repaired;
        }
    in
    Ok
      {
        criteria;
        plan;
        matching;
        count = Glsn.Set.cardinal final_set;
        c_auditing;
        coverage;
      }

(* Evaluate one clause purely to populate the session cache: the same
   evaluation and store as the first [run] over the clause, minus the
   per-query conjunction and delivery. *)
let warm_clause cluster ?(ttp = Net.Node_id.Ttp "query") ?(on_failure = Fail)
    ~cache clause =
  ignore (clause_step cluster ~ttp ~on_failure ~cache:(Some cache) clause)
