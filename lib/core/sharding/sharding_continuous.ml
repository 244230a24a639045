type engine = {
  shard : Sharding.shard;
  registry : Continuous_registry.t;
  incremental : Continuous_incremental.t;
}

type t = { engines : engine list }

let create fleet =
  let engines =
    List.map
      (fun (shard : Sharding.shard) ->
        let registry = Continuous_registry.create shard.Sharding.cluster in
        let incremental = Continuous_incremental.create registry in
        { shard; registry; incremental })
      (Sharding.shards fleet)
  in
  { engines }

let register t ?delivery request =
  (* Lockstep: the registries were created together and every criterion
     registers everywhere, so the per-shard ids always agree.  Errors
     are fragmentation-level (parse/plan) and the shards share one
     fragmentation map, so the first shard's error is the fleet's. *)
  let rec go acc = function
    | [] -> (
      match List.rev acc with
      | [] -> invalid_arg "Sharding_continuous.register: no shards"
      | id :: rest ->
        assert (List.for_all (Int.equal id) rest);
        Ok id)
    | e :: rest -> (
      match Continuous_incremental.register e.incremental ?delivery request with
      | Ok id -> go (id :: acc) rest
      | Error _ as err ->
        (* Keep the fleet consistent: roll back the ones that took it. *)
        let taken = List.filteri (fun i _ -> i < List.length acc) t.engines in
        List.iter2
          (fun e' id -> ignore (Continuous_registry.unregister e'.registry id))
          taken (List.rev acc);
        err)
  in
  go [] t.engines

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
