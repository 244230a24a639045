open Numtheory
open Dla

type config = {
  users : int;
  transactions : int;
  seed : int;
  max_amount_cents : int;
  protocols : string list;
}

let default_config =
  {
    users = 4;
    transactions = 25;
    seed = 7;
    max_amount_cents = 100_000;
    protocols = [ "TCP"; "UDP" ];
  }

type ground_truth = {
  total_volume_cents : int;
  per_user_events : (int * int) list;
  transaction_ids : string list;
}

let d = Attribute.defined
let u = Attribute.undefined

let base_time =
  Time_util.epoch_of_civil ~year:2002 ~month:5 ~day:12 ~hour:20 ~minute:0
    ~second:0

let events config =
  if config.users < 1 then invalid_arg "Ecommerce.events: users < 1";
  if config.protocols = [] then invalid_arg "Ecommerce.events: no protocols";
  let rng = Prng.create ~seed:config.seed in
  let pick_protocol () =
    List.nth config.protocols (Prng.int rng (List.length config.protocols))
  in
  let clock = ref base_time in
  List.concat
    (List.init config.transactions (fun txn ->
         let buyer = Prng.int rng config.users in
         let seller = Prng.int rng config.users in
         let tid = Printf.sprintf "T%07d" (1100265 + txn) in
         let amount = 1 + Prng.int rng config.max_amount_cents in
         let units = 1 + Prng.int rng 100 in
         clock := !clock + 1 + Prng.int rng 300;
         let order_time = !clock in
         clock := !clock + 1 + Prng.int rng 60;
         let payment_time = !clock in
         let order =
           ( [ (d "time", Value.Time order_time);
               (d "id", Value.Str (Printf.sprintf "U%d" buyer));
               (d "protocl", Value.Str (pick_protocol ()));
               (d "tid", Value.Str tid);
               (u 1, Value.Int units);
               (u 2, Value.Money amount);
               (u 3, Value.Str "order")
             ],
             Net.Node_id.User buyer )
         in
         let payment =
           ( [ (d "time", Value.Time payment_time);
               (d "id", Value.Str (Printf.sprintf "U%d" seller));
               (d "protocl", Value.Str (pick_protocol ()));
               (d "tid", Value.Str tid);
               (u 1, Value.Int units);
               (u 2, Value.Money amount);
               (u 3, Value.Str "payment")
             ],
             Net.Node_id.User seller )
         in
         [ order; payment ]))

let ground_truth_of config stream =
  let total =
    List.fold_left
      (fun acc (attrs, _) ->
        match List.assoc_opt (u 2) attrs with
        | Some (Value.Money cents) -> acc + cents
        | Some _ | None -> acc)
      0 stream
  in
  let counts = Array.make config.users 0 in
  List.iter
    (fun (_, origin) ->
      match origin with
      | Net.Node_id.User i when i < config.users ->
        counts.(i) <- counts.(i) + 1
      | _ -> ())
    stream;
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun (attrs, _) ->
           match List.assoc_opt (d "tid") attrs with
           | Some (Value.Str tid) -> Some tid
           | Some _ | None -> None)
         stream)
  in
  {
    total_volume_cents = total;
    per_user_events = Array.to_list (Array.mapi (fun i c -> (i, c)) counts);
    transaction_ids = tids;
  }

let populate cluster config =
  let stream = events config in
  let tickets =
    List.init config.users (fun i ->
        ( Net.Node_id.User i,
          Cluster.issue_ticket cluster
            ~id:(Printf.sprintf "T-user%d" i)
            ~principal:(Net.Node_id.User i)
            ~rights:[ Ticket.Read; Ticket.Write ]
            ~ttl:86400 ))
  in
  let glsns =
    List.map
      (fun (attrs, origin) ->
        let ticket =
          snd (List.find (fun (n, _) -> Net.Node_id.equal n origin) tickets)
        in
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin ~attributes:attrs)
        with
        | Ok glsn -> glsn
        | Error e -> invalid_arg ("Ecommerce.populate: " ^ e))
      stream
  in
  (glsns, ground_truth_of config stream)
