type kind = Uniform | Skewed | Lossy

type t = { kind : kind; seed : int; max_attempts : int }

let name t =
  match t.kind with
  | Uniform -> "uniform"
  | Skewed -> "skewed"
  | Lossy -> "lossy"

let uniform ~seed = { kind = Uniform; seed; max_attempts = 1 }
let skewed ~seed = { kind = Skewed; seed; max_attempts = 1 }

let lossy ?(max_attempts = 40) ~seed () =
  if max_attempts < 1 then invalid_arg "Schedule.lossy: max_attempts < 1";
  { kind = Lossy; seed; max_attempts }

let suite ~seed () =
  [ uniform ~seed; skewed ~seed:(seed + 1); lossy ~seed:(seed + 2) () ]

exception Gave_up of { schedule : string; attempts : int; reason : string }

let () =
  Printexc.register_printer (function
    | Gave_up { schedule; attempts; reason } ->
      Some
        (Printf.sprintf "Spec.Schedule.Gave_up(%s after %d attempts: %s)"
           schedule attempts reason)
    | _ -> None)

let loss_rate = 0.01

(* [index] derives one network of a fleet from the schedule seed — a
   sharded deployment runs one network per shard, each with its own
   latency/drop pattern but all pinned by the one chaos seed.  131 is
   coprime to 7919, so per-attempt reseeding never collides a retry of
   shard i with a first try of shard j. *)
let network ?(index = 0) t ~attempt =
  let seed = t.seed + (131 * index) in
  match t.kind with
  | Uniform -> Net.Network.of_config (Net.Config.make ~seed ())
  | Skewed ->
    Net.Network.of_config (Net.Config.make ~seed ~latency_ms:(Net.Config.latency_profile ~seed ()) ())
  | Lossy ->
    (* A fresh seed per attempt re-rolls the drop pattern, so retries
       explore different loss interleavings rather than replaying the
       same doomed one. *)
    Net.Network.of_config (Net.Config.make ~seed:(seed + (7919 * attempt)) ~loss_rate ())

let run_networks t ~count f =
  if count < 1 then invalid_arg "Schedule.run_many: count < 1";
  let networks attempt = List.init count (fun i -> network ~index:i t ~attempt) in
  match t.kind with
  | Uniform | Skewed -> f (networks 0)
  | Lossy ->
    let rec attempt_from n =
      if n >= t.max_attempts then
        raise
          (Gave_up
             {
               schedule = name t;
               attempts = n;
               reason =
                 Printf.sprintf "attempt budget (%d) exhausted"
                   t.max_attempts;
             })
      else
        match f (networks n) with
        | result -> result
        | exception Net.Network.Partitioned { reason = "loss"; _ } ->
          attempt_from (n + 1)
        | exception Net.Network.Partitioned { src; dst; reason } ->
          (* A down endpoint is a permanent condition for the attempt
             loop: re-rolling the drop pattern can never heal it, so
             fail fast instead of burning the whole budget. *)
          raise
            (Gave_up
               {
                 schedule = name t;
                 attempts = n + 1;
                 reason =
                   Printf.sprintf "permanent partition %s -> %s (%s)"
                     (Net.Node_id.to_string src) (Net.Node_id.to_string dst)
                     reason;
               })
    in
    attempt_from 0

let run t f =
  run_networks t ~count:1 (function [ net ] -> f net | _ -> assert false)

let run_many t ~count f = run_networks t ~count f
