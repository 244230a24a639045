type id = int

type standing = {
  sid : id;
  criteria : Query.t;
  plan : Planner.t;
  delivery : Executor.delivery;
}

type t = {
  cluster : Cluster.t;
  mutable next_id : id;
  mutable entries : standing list;  (* newest first *)
}

let create cluster = { cluster; next_id = 0; entries = [] }
let cluster t = t.cluster

let register t ?(delivery = Executor.Glsns) request =
  match Auditor_engine.criteria_of_request request with
  | Error e -> Error e
  | Ok criteria -> (
    match
      Planner.plan (Cluster.fragmentation t.cluster) (Query.normalize criteria)
    with
    | Error e -> Error e
    | Ok plan ->
      let sid = t.next_id in
      t.next_id <- sid + 1;
      t.entries <- { sid; criteria; plan; delivery } :: t.entries;
      Obs.Metrics.incr "audit.continuous.registered";
      Ok sid)

let unregister t sid =
  let kept = List.filter (fun s -> s.sid <> sid) t.entries in
  let removed = List.length kept <> List.length t.entries in
  t.entries <- kept;
  if removed then Obs.Metrics.incr "audit.continuous.unregistered";
  removed

let registered t =
  List.sort (fun a b -> compare a.sid b.sid) t.entries
