open Numtheory

let max_attempts = 5
let base_backoff_ms = 2.0
let backoff_multiplier = 2.0
let max_backoff_ms = 50.0
let jitter = 0.2
let failure_threshold = 3
let cooldown_ms = 100.0

type breaker_state = Closed | Open | Half_open

type breaker = {
  mutable consecutive_failures : int;
  mutable opened_at_ms : float;  (* meaningful while open *)
  mutable is_open : bool;
  mutable waited_ms : float;
}

type t = {
  net : Network.t;
  rng : Prng.t;
  breakers : (Node_id.t, breaker) Hashtbl.t;
}

let create ?(seed = 0) net =
  { net; rng = Prng.create ~seed; breakers = Hashtbl.create 16 }

let breaker t dst =
  match Hashtbl.find_opt t.breakers dst with
  | Some b -> b
  | None ->
    let b =
      {
        consecutive_failures = 0;
        opened_at_ms = 0.0;
        is_open = false;
        waited_ms = 0.0;
      }
    in
    Hashtbl.replace t.breakers dst b;
    b

let now_ms t = Network.virtual_time_ms t.net

let breaker_of t dst =
  let b = breaker t dst in
  if not b.is_open then Closed
  else if now_ms t -. b.opened_at_ms >= cooldown_ms then Half_open
  else Open

let reachable t dst = breaker_of t dst <> Open

let suspects t =
  Hashtbl.fold (fun dst _ acc -> if reachable t dst then acc else dst :: acc)
    t.breakers []
  |> List.sort Node_id.compare

let reinstate t dst =
  let b = breaker t dst in
  if b.is_open then Obs.Metrics.incr "retry.breaker.closed";
  b.is_open <- false;
  b.consecutive_failures <- 0

let tick t ms = Network.charge_wait_ms t.net ms

let note_success t dst =
  let b = breaker t dst in
  if b.is_open then Obs.Metrics.incr "retry.breaker.closed";
  b.is_open <- false;
  b.consecutive_failures <- 0

let note_failure t dst =
  let b = breaker t dst in
  b.consecutive_failures <- b.consecutive_failures + 1;
  if b.consecutive_failures >= failure_threshold && not b.is_open then begin
    b.is_open <- true;
    b.opened_at_ms <- now_ms t;
    Obs.Metrics.incr "retry.breaker.opened"
  end
  else if b.is_open then begin
    (* A failed probe re-arms the cooldown. *)
    b.opened_at_ms <- now_ms t;
    Obs.Metrics.incr "retry.breaker.rearmed"
  end

type outcome =
  | Sent of { attempts : int; waited_ms : float }
  | Gave_up of { attempts : int; reason : string }

let backoff_ms t attempt =
  (* attempt = 1 is the first retry wait. *)
  let base =
    Float.min
      (base_backoff_ms *. (backoff_multiplier ** float_of_int (attempt - 1)))
      max_backoff_ms
  in
  let spread = ((2.0 *. Prng.float t.rng) -. 1.0) *. jitter in
  Float.max 0.0 (base *. (1.0 +. spread))

let send t ~src ~dst ~label ~bytes =
  match breaker_of t dst with
  | Open ->
    Obs.Metrics.incr "retry.rejected_open";
    Gave_up { attempts = 0; reason = "circuit open" }
  | Closed | Half_open ->
    let b = breaker t dst in
    let rec go attempt waited =
      Obs.Metrics.incr "retry.attempts";
      match Network.send t.net ~src ~dst ~label ~bytes with
      | Network.Delivered ->
        note_success t dst;
        Sent { attempts = attempt; waited_ms = waited }
      | Network.Dropped reason ->
        note_failure t dst;
        if attempt = max_attempts then begin
          Obs.Metrics.incr "retry.gave_up";
          Gave_up { attempts = max_attempts; reason }
        end
        else begin
          let wait = backoff_ms t attempt in
          Obs.Metrics.observe "retry.backoff_ms" wait;
          Network.charge_wait_ms t.net wait;
          b.waited_ms <- b.waited_ms +. wait;
          go (attempt + 1) (waited +. wait)
        end
    in
    go 1 0.0

let waited_ms t dst = (breaker t dst).waited_ms
