open Numtheory

type delivery = Delivered | Dropped of string

type stats = {
  messages : int;
  bytes : int;
  rounds : int;
  dropped : int;
  frames : int;
  frame_msgs : int;
  frame_bytes : int;
  virtual_time_ms : float;
  by_label : (string * int) list;
  dropped_by_label : (string * int) list;
}

exception Partitioned of { src : Node_id.t; dst : Node_id.t; reason : string }

(* Fixed accounting cost of one wire frame: count + per-message length
   prefix header, serialized once per frame regardless of how many
   coalesced payloads it carries. *)
let frame_header_bytes = 8

type t = {
  config : Config.t;
  rng : Prng.t;
  ledger : Ledger.t;
  mutable down : Node_id.Set.t;
  mutable messages : int;
  mutable bytes : int;
  mutable rounds : int;
  mutable dropped : int;
  mutable frames : int;
  mutable frame_msgs : int;
  mutable frame_bytes : int;
  mutable virtual_time_ms : float;
  mutable round_max_latency : float;
  mutable by_label : (string, int) Hashtbl.t;
  mutable dropped_by_label : (string, int) Hashtbl.t;
  mutable open_frames : (string * string, unit) Hashtbl.t;
      (* (src, dst) pairs with a frame open in the current round
         window — only consulted when [config.coalesce] is set *)
}

let of_config (config : Config.t) =
  {
    config;
    rng = Prng.create ~seed:config.Config.seed;
    ledger = Ledger.create ();
    down = Node_id.Set.empty;
    messages = 0;
    bytes = 0;
    rounds = 0;
    dropped = 0;
    frames = 0;
    frame_msgs = 0;
    frame_bytes = 0;
    virtual_time_ms = 0.0;
    round_max_latency = 0.0;
    by_label = Hashtbl.create 16;
    dropped_by_label = Hashtbl.create 16;
    open_frames = Hashtbl.create 16;
  }

let config t = t.config
let ledger t = t.ledger

let bump table label =
  let prev = Option.value ~default:0 (Hashtbl.find_opt table label) in
  Hashtbl.replace table label (prev + 1)

let drop t ~label error =
  t.dropped <- t.dropped + 1;
  bump t.dropped_by_label label;
  Obs.Metrics.incr "net.drops";
  Obs.Metrics.incr ("net.drop." ^ label);
  Dropped (Delivery_error.to_string error)

(* Wire-frame accounting: between two rounds, virtual time stands
   still, so every delivered (src, dst) message in the window shares
   one frame when coalescing is on — the header is paid once and
   [net.frame.sends] stays <= [net.msgs].  Off (the default), each
   message is its own frame and the two families count in lockstep. *)
let account_frame t ~src ~dst ~bytes =
  let riding =
    t.config.Config.coalesce
    &&
    let key = (Node_id.to_string src, Node_id.to_string dst) in
    if Hashtbl.mem t.open_frames key then true
    else begin
      Hashtbl.replace t.open_frames key ();
      false
    end
  in
  t.frame_msgs <- t.frame_msgs + 1;
  Obs.Metrics.incr "net.frame.msgs";
  if riding then begin
    t.frame_bytes <- t.frame_bytes + bytes;
    Obs.Metrics.incr "net.frame.coalesced";
    Obs.Metrics.incr ~by:bytes "net.frame.bytes"
  end
  else begin
    t.frames <- t.frames + 1;
    t.frame_bytes <- t.frame_bytes + bytes + frame_header_bytes;
    Obs.Metrics.incr "net.frame.sends";
    Obs.Metrics.incr ~by:(bytes + frame_header_bytes) "net.frame.bytes"
  end

let send t ~src ~dst ~label ~bytes =
  if Node_id.Set.mem src t.down then
    drop t ~label Delivery_error.Source_down
  else if Node_id.Set.mem dst t.down then
    drop t ~label Delivery_error.Destination_down
  else if
    t.config.Config.loss_rate > 0.0
    && Prng.float t.rng < t.config.Config.loss_rate
  then drop t ~label Delivery_error.Loss
  else begin
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    let lat = t.config.Config.latency_ms src dst in
    if lat > t.round_max_latency then t.round_max_latency <- lat;
    bump t.by_label label;
    account_frame t ~src ~dst ~bytes;
    Obs.Metrics.incr "net.msgs";
    Obs.Metrics.incr ~by:bytes "net.bytes";
    Obs.Metrics.incr ("net.msg." ^ label);
    Obs.Metrics.incr ~by:bytes ("net.bytes." ^ label);
    Delivered
  end

let send_exn t ~src ~dst ~label ~bytes =
  match send t ~src ~dst ~label ~bytes with
  | Delivered -> ()
  | Dropped reason -> raise (Partitioned { src; dst; reason })

let round ?label t =
  t.rounds <- t.rounds + 1;
  Obs.Metrics.incr "net.rounds";
  (match label with
  | Some l -> Obs.Metrics.incr ("net.rounds." ^ l)
  | None -> ());
  Obs.Metrics.observe "net.round_ms" t.round_max_latency;
  t.virtual_time_ms <- t.virtual_time_ms +. t.round_max_latency;
  t.round_max_latency <- 0.0;
  (* Round barrier: virtual time advanced, so the coalescing window
     closes and the next send per (src, dst) opens a fresh frame. *)
  Hashtbl.reset t.open_frames

let charge_wait_ms t ms =
  if ms > 0.0 then t.virtual_time_ms <- t.virtual_time_ms +. ms

let virtual_time_ms t = t.virtual_time_ms

let take_down t node = t.down <- Node_id.Set.add node t.down
let bring_up t node = t.down <- Node_id.Set.remove node t.down
let is_up t node = not (Node_id.Set.mem node t.down)
let down_nodes t = Node_id.Set.elements t.down

let sorted_bindings table =
  Hashtbl.fold (fun label count acc -> (label, count) :: acc) table []
  |> List.sort compare

let stats t =
  {
    messages = t.messages;
    bytes = t.bytes;
    rounds = t.rounds;
    dropped = t.dropped;
    frames = t.frames;
    frame_msgs = t.frame_msgs;
    frame_bytes = t.frame_bytes;
    virtual_time_ms = t.virtual_time_ms;
    by_label = sorted_bindings t.by_label;
    dropped_by_label = sorted_bindings t.dropped_by_label;
  }

let reset_stats t =
  t.messages <- 0;
  t.bytes <- 0;
  t.rounds <- 0;
  t.dropped <- 0;
  t.frames <- 0;
  t.frame_msgs <- 0;
  t.frame_bytes <- 0;
  t.virtual_time_ms <- 0.0;
  t.round_max_latency <- 0.0;
  t.by_label <- Hashtbl.create 16;
  t.dropped_by_label <- Hashtbl.create 16;
  t.open_frames <- Hashtbl.create 16

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>messages: %d@ bytes: %d@ rounds: %d@ dropped: %d@ frames: %d (%d \
     msgs, %d bytes)@ virtual time: %.1f ms@ %a@]"
    s.messages s.bytes s.rounds s.dropped s.frames s.frame_msgs s.frame_bytes
    s.virtual_time_ms
    (Format.pp_print_list (fun fmt (l, c) -> Format.fprintf fmt "%s: %d" l c))
    (s.by_label
    @ List.map (fun (l, c) -> (l ^ " [dropped]", c)) s.dropped_by_label)
