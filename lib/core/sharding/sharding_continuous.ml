type engine = { shard : Sharding.shard; incremental : Continuous_incremental.t }
type t = { engines : engine list }

let create fleet =
  let engines =
    List.map
      (fun (shard : Sharding.shard) ->
        let registry = Continuous_registry.create shard.Sharding.cluster in
        { shard; incremental = Continuous_incremental.create registry })
      (Sharding.shards fleet)
  in
  { engines }

let register t ?delivery request =
  (* Lockstep: the registries were created together and every criterion
     registers everywhere, so the per-shard ids always agree.  Errors
     are fragmentation-level (parse/plan) and the shards share one
     fragmentation map, so only the first shard can refuse a criterion,
     before any shard has registered it. *)
  let register_on e =
    Continuous_incremental.register e.incremental ?delivery request
  in
  match t.engines with
  | [] -> invalid_arg "Sharding_continuous.register: no shards"
  | first :: rest ->
    Result.map
      (fun id ->
        List.iter
          (fun e ->
            let taken = register_on e in
            assert (taken = Ok id))
          rest;
        id)
      (register_on first)

let merge_verdicts (vs : Continuous_incremental.verdict list) =
  {
    Continuous_incremental.matching =
      List.sort Glsn.compare
        (List.concat_map (fun v -> v.Continuous_incremental.matching) vs);
    count =
      List.fold_left (fun acc v -> acc + v.Continuous_incremental.count) 0 vs;
    complete = List.for_all (fun v -> v.Continuous_incremental.complete) vs;
    unreachable =
      List.sort_uniq Net.Node_id.compare
        (List.concat_map (fun v -> v.Continuous_incremental.unreachable) vs);
  }

let per_shard_verdicts t id =
  List.filter_map
    (fun e ->
      Option.map
        (fun v -> (e.shard.Sharding.name, v))
        (Continuous_incremental.verdict e.incremental id))
    t.engines

let verdict t id =
  match List.map snd (per_shard_verdicts t id) with
  | [] -> None
  | vs when List.length vs = List.length t.engines -> Some (merge_verdicts vs)
  | _ -> None
