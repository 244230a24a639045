type id = int

type standing = {
  sid : id;
  criteria : Query.t;
  plan : Planner.t;
  delivery : Executor.delivery;
}

type t = {
  cluster : Cluster.t;
  mutable entries : standing list;
      (* newest first; nothing removes one, so the next sid is the
         length *)
}

let create cluster = { cluster; entries = [] }
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
      let standing =
        { sid = List.length t.entries; criteria; plan; delivery }
      in
      t.entries <- standing :: t.entries;
      Obs.Metrics.incr "audit.continuous.registered";
      Ok standing)

let registered t = List.rev t.entries
