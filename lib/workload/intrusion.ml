open Numtheory
open Dla

type config = {
  hosts : int;
  background_events : int;
  probes_per_host : int;
  local_alert_threshold : int;
  seed : int;
}

let default_config =
  {
    hosts = 5;
    background_events = 60;
    probes_per_host = 3;
    local_alert_threshold = 10;
    seed = 13;
  }

type ground_truth = {
  attacker : string;
  attacker_total_events : int;
  background_sources : string list;
  max_background_per_source : int;
}

let d = Attribute.defined
let u = Attribute.undefined

let attacker_id = "evil7"

let base_time =
  Time_util.epoch_of_civil ~year:2002 ~month:5 ~day:13 ~hour:2 ~minute:0
    ~second:0

let background_source rng =
  Printf.sprintf "host%02d" (Prng.int rng 24)

let event ~time ~source ~target ~protocol ~port =
  ( [ (d "time", Value.Time time);
      (d "id", Value.Str source);
      (d "ip", Value.Str (Printf.sprintf "10.0.0.%d" target));
      (d "protocl", Value.Str protocol);
      (u 1, Value.Int port)
    ],
    Net.Node_id.User target )

let events config =
  if config.hosts < 1 then invalid_arg "Intrusion.events: hosts < 1";
  let rng = Prng.create ~seed:config.seed in
  let clock = ref base_time in
  let background =
    List.init config.background_events (fun _ ->
        clock := !clock + 1 + Prng.int rng 120;
        event ~time:!clock
          ~source:(background_source rng)
          ~target:(Prng.int rng config.hosts)
          ~protocol:(if Prng.bool rng then "TCP" else "UDP")
          ~port:(1 + Prng.int rng 1024))
  in
  (* The low-and-slow scan: a few probes per host, spread out in time. *)
  let scan =
    List.concat
      (List.init config.hosts (fun host ->
           List.init config.probes_per_host (fun probe ->
               clock := !clock + 200 + Prng.int rng 400;
               event ~time:!clock ~source:attacker_id ~target:host
                 ~protocol:"TCP"
                 ~port:(22 + (probe * 1000)))))
  in
  (* Interleave deterministically by timestamp. *)
  List.sort
    (fun (a, _) (b, _) ->
      match (List.assoc_opt (d "time") a, List.assoc_opt (d "time") b) with
      | Some ta, Some tb -> Value.compare ta tb
      | _ -> 0)
    (background @ scan)

let ground_truth_of config stream =
  let count_by source =
    List.length
      (List.filter
         (fun (attrs, _) ->
           List.assoc_opt (d "id") attrs = Some (Value.Str source))
         stream)
  in
  let sources =
    List.sort_uniq compare
      (List.filter_map
         (fun (attrs, _) ->
           match List.assoc_opt (d "id") attrs with
           | Some (Value.Str s) when s <> attacker_id -> Some s
           | Some _ | None -> None)
         stream)
  in
  {
    attacker = attacker_id;
    attacker_total_events = config.hosts * config.probes_per_host;
    background_sources = sources;
    max_background_per_source =
      List.fold_left (fun acc s -> max acc (count_by s)) 0 sources;
  }

let populate cluster config =
  let stream = events config in
  let tickets = Hashtbl.create 8 in
  let ticket_for origin host =
    match Hashtbl.find_opt tickets host with
    | Some t -> t
    | None ->
      let t =
        Cluster.issue_ticket cluster
          ~id:(Printf.sprintf "T-ids%d" host)
          ~principal:origin
          ~rights:[ Ticket.Read; Ticket.Write ]
          ~ttl:86400
      in
      Hashtbl.add tickets host t;
      t
  in
  let glsns =
    List.map
      (fun (attrs, origin) ->
        let host =
          match origin with Net.Node_id.User i -> i | _ -> 0
        in
        match
          Cluster.to_result
            (Cluster.submit cluster
               ~ticket:(ticket_for origin host)
               ~origin ~attributes:attrs)
        with
        | Ok glsn -> glsn
        | Error e -> invalid_arg ("Intrusion.populate: " ^ e))
      stream
  in
  (glsns, ground_truth_of config stream)

let per_host_counts config ~source =
  let stream = events config in
  List.init config.hosts (fun host ->
      ( host,
        List.length
          (List.filter
             (fun (attrs, origin) ->
               origin = Net.Node_id.User host
               && List.assoc_opt (d "id") attrs = Some (Value.Str source))
             stream) ))
