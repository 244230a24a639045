open Numtheory

type 'msg event =
  | Deliver of { src : Node_id.t; dst : Node_id.t; msg : 'msg }
  | Timer of (unit -> unit)

type 'msg t = {
  config : Config.t;
  rng : Prng.t;
  queue : 'msg event Event_queue.t;
  mutable handlers : (src:Node_id.t -> 'msg -> unit) Node_id.Map.t;
  mutable down : Node_id.Set.t;
  mutable clock : float;
  mutable delivered : int;
  mutable drop_counts : (Delivery_error.t * int) list;
}

let create (config : Config.t) =
  {
    config;
    rng = Prng.create ~seed:config.Config.seed;
    queue = Event_queue.create ();
    handlers = Node_id.Map.empty;
    down = Node_id.Set.empty;
    clock = 0.0;
    delivered = 0;
    drop_counts = [];
  }

let config t = t.config
let now t = t.clock

let on_message t node handler =
  t.handlers <- Node_id.Map.add node handler t.handlers

let drop t error =
  t.drop_counts <-
    (match List.assoc_opt error t.drop_counts with
    | Some n ->
      (error, n + 1) :: List.remove_assoc error t.drop_counts
    | None -> (error, 1) :: t.drop_counts)

let send t ~src ~dst msg =
  let config = t.config in
  if Node_id.Set.mem src t.down then drop t Delivery_error.Source_down
  else if
    config.Config.loss_rate > 0.0 && Prng.float t.rng < config.Config.loss_rate
  then drop t Delivery_error.Loss
  else
    Event_queue.push t.queue
      ~time:(t.clock +. config.Config.latency_ms src dst)
      (Deliver { src; dst; msg })

let set_timer t ~delay_ms callback =
  if delay_ms < 0.0 then invalid_arg "Runtime.set_timer: negative delay";
  Event_queue.push t.queue ~time:(t.clock +. delay_ms) (Timer callback)

let take_down t node = t.down <- Node_id.Set.add node t.down
let bring_up t node = t.down <- Node_id.Set.remove node t.down

let deliver t ~src ~dst msg =
  if Node_id.Set.mem dst t.down then drop t Delivery_error.Destination_down
  else
    match Node_id.Map.find_opt dst t.handlers with
    | None -> drop t Delivery_error.No_handler
    | Some handler ->
      t.delivered <- t.delivered + 1;
      handler ~src msg

let run ?until_ms t =
  let processed = ref 0 in
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | None -> continue := false
    | Some time when (match until_ms with Some u -> time > u | None -> false)
      ->
      continue := false
    | Some _ -> (
      match Event_queue.pop t.queue with
      | None -> continue := false
      | Some (time, event) ->
        t.clock <- time;
        incr processed;
        (match event with
        | Timer callback -> callback ()
        | Deliver { src; dst; msg } -> deliver t ~src ~dst msg))
  done;
  !processed

let delivered t = t.delivered

let dropped t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.drop_counts

let drops t =
  List.filter_map
    (fun error ->
      match List.assoc_opt error t.drop_counts with
      | Some n -> Some (error, n)
      | None -> None)
    Delivery_error.all

(* ------------------------------------------------------------------ *)
(* Virtual-time pipeline scheduler                                     *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type job = {
    finish : float;  (* completion instant on the pipelined clock *)
  }

  type t = {
    max_depth : int;
    resources : (string, float) Hashtbl.t;  (* node -> ready instant *)
    mutable in_flight : job list;
    mutable jobs : int;
    mutable peak_depth : int;
    mutable sequential_ms : float;
    mutable pipelined_ms : float;
  }

  type report = {
    jobs : int;
    peak_depth : int;
    sequential_ms : float;
    pipelined_ms : float;
  }

  let create ?(max_depth = 4) () =
    if max_depth < 1 then invalid_arg "Runtime.Pipeline.create: max_depth must be >= 1";
    {
      max_depth;
      resources = Hashtbl.create 16;
      in_flight = [];
      jobs = 0;
      peak_depth = 0;
      sequential_ms = 0.0;
      pipelined_ms = 0.0;
    }

  let ready t resource =
    Option.value ~default:0.0 (Hashtbl.find_opt t.resources resource)

  let active t instant =
    List.length (List.filter (fun j -> j.finish > instant) t.in_flight)

  let submit t ~resources ~duration_ms =
    if duration_ms < 0.0 || not (Float.is_finite duration_ms) then
      invalid_arg "Runtime.Pipeline.submit: bad duration";
    (* Earliest legal start: every storage node the clause touches must
       have finished its previous protocol role (the dependency graph,
       expressed as resource ready-times)... *)
    let start =
      List.fold_left (fun acc r -> Float.max acc (ready t r)) 0.0 resources
    in
    (* ... and the reactor may keep at most [max_depth] clause
       evaluations in flight: past the cap, the start slides to the
       next completion. *)
    let start = ref start in
    while active t !start >= t.max_depth do
      let next =
        List.fold_left
          (fun acc j -> if j.finish > !start then Float.min acc j.finish else acc)
          infinity t.in_flight
      in
      start := next
    done;
    let start = !start in
    let finish = start +. duration_ms in
    let depth = active t start + 1 in
    t.in_flight <- { finish } :: List.filter (fun j -> j.finish > start) t.in_flight;
    List.iter (fun r -> Hashtbl.replace t.resources r finish) resources;
    t.jobs <- t.jobs + 1;
    if depth > t.peak_depth then t.peak_depth <- depth;
    t.sequential_ms <- t.sequential_ms +. duration_ms;
    if finish > t.pipelined_ms then t.pipelined_ms <- finish

  let report (t : t) : report =
    {
      jobs = t.jobs;
      peak_depth = t.peak_depth;
      sequential_ms = t.sequential_ms;
      pipelined_ms = t.pipelined_ms;
    }
end
