open Numtheory
open Dla

type config = { branches : int; patrons : int; events : int; seed : int }

let default_config = { branches = 3; patrons = 40; events = 120; seed = 23 }

type ground_truth = {
  checkouts : int;
  searches : int;
  renewals : int;
  per_branch : (int * int) list;
  heaviest_patron : string;
  heaviest_patron_events : int;
}

let d = Attribute.defined
let u = Attribute.undefined

let services = [| "checkout"; "search"; "renewal" |]
let item_classes = [| "fiction"; "reference"; "periodical"; "media" |]

let base_time =
  Time_util.epoch_of_civil ~year:2002 ~month:6 ~day:1 ~hour:9 ~minute:0
    ~second:0

let events config =
  if config.branches < 1 || config.patrons < 1 then
    invalid_arg "Library.events: need branches and patrons";
  let rng = Prng.create ~seed:config.seed in
  let clock = ref base_time in
  List.init config.events (fun _ ->
      clock := !clock + 1 + Prng.int rng 600;
      let branch = Prng.int rng config.branches in
      (* A zipf-ish skew so one patron plausibly stands out. *)
      let patron =
        let r = Prng.int rng 100 in
        if r < 25 then 0 else Prng.int rng config.patrons
      in
      let service = services.(Prng.int rng (Array.length services)) in
      let item = item_classes.(Prng.int rng (Array.length item_classes)) in
      ( [ (d "time", Value.Time !clock);
          (d "id", Value.Str (Printf.sprintf "branch%d" branch));
          (d "protocl", Value.Str service);
          (d "tid", Value.Str item);
          (u 4, Value.Str (Printf.sprintf "patron%03d" patron));
          (u 1, Value.Int (1 + Prng.int rng 50))
        ],
        Net.Node_id.User branch ))

let ground_truth_of config stream =
  let count_where pred = List.length (List.filter pred stream) in
  let service_is name (attrs, _) =
    List.assoc_opt (d "protocl") attrs = Some (Value.Str name)
  in
  let per_branch =
    List.init config.branches (fun b ->
        (b, count_where (fun (_, origin) -> origin = Net.Node_id.User b)))
  in
  let patron_count p =
    count_where (fun (attrs, _) ->
        List.assoc_opt (u 4) attrs = Some (Value.Str p))
  in
  let patrons =
    List.sort_uniq compare
      (List.filter_map
         (fun (attrs, _) ->
           match List.assoc_opt (u 4) attrs with
           | Some (Value.Str p) -> Some p
           | Some _ | None -> None)
         stream)
  in
  let heaviest =
    List.fold_left
      (fun (best, best_count) p ->
        let c = patron_count p in
        if c > best_count then (p, c) else (best, best_count))
      ("", 0) patrons
  in
  {
    checkouts = count_where (service_is "checkout");
    searches = count_where (service_is "search");
    renewals = count_where (service_is "renewal");
    per_branch;
    heaviest_patron = fst heaviest;
    heaviest_patron_events = snd heaviest;
  }

let populate cluster config =
  let stream = events config in
  let tickets = Hashtbl.create 8 in
  let ticket_for origin branch =
    match Hashtbl.find_opt tickets branch with
    | Some t -> t
    | None ->
      let t =
        Cluster.issue_ticket cluster
          ~id:(Printf.sprintf "T-branch%d" branch)
          ~principal:origin
          ~rights:[ Ticket.Read; Ticket.Write ]
          ~ttl:86400
      in
      Hashtbl.add tickets branch t;
      t
  in
  let glsns =
    List.map
      (fun (attrs, origin) ->
        let branch = match origin with Net.Node_id.User b -> b | _ -> 0 in
        match
          Cluster.to_result
            (Cluster.submit cluster
               ~ticket:(ticket_for origin branch)
               ~origin ~attributes:attrs)
        with
        | Ok glsn -> glsn
        | Error e -> invalid_arg ("Library.populate: " ^ e))
      stream
  in
  (glsns, ground_truth_of config stream)
