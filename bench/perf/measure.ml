(* Measurement loops.  Oracle checks that must run mid-phase go through
   [untimed]: their wall time is excluded from the phase clock and from
   the latency of the op they interrupt. *)

open Util

let excluded = ref 0.0
let depth = ref 0

(* Nested calls count once, in the outermost. *)
let untimed f =
  if !depth > 0 then f ()
  else begin
    incr depth;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        excluded := !excluded +. (now () -. t0))
      f
  end

(* The phase clock: wall seconds minus untimed work. *)
let clock () = now () -. !excluded

(* [f ()] and its wall ms, minus any untimed work inside it. *)
let timed f =
  let ex0 = !excluded in
  let t0 = now () in
  let r = f () in
  (r, 1000.0 *. (now () -. t0 -. (!excluded -. ex0)))

(* A measured phase starts from a collected heap: otherwise the garbage
   and the collector's progress left by set-up and warmup — which move
   with any change to them — set the pace of its collections, and
   shifted whole runs by 6%. *)
let start_phase () =
  Gc.full_major ();
  excluded := 0.0

(* Closed loop: [step i] back to back until [seconds] of timed wall
   clock have passed and at least [min_ops] steps ran, ending on a
   multiple of [window] steps, so a run holds whole cycles of its op
   mix.  Returns the step count and the timed wall seconds. *)
let closed_loop ~seconds ~min_ops ~window step =
  excluded := 0.0;
  let t_start = now () in
  let i = ref 0 in
  while !i < min_ops || !i mod window <> 0 || now () -. t_start -. !excluded < seconds do
    step !i;
    incr i
  done;
  (!i, now () -. t_start -. !excluded)

type open_result = {
  latencies : Samples.t;  (** ms, each from its op's due time *)
  ops : int;
  max_lateness_ms : float;  (** how late the generator started an op *)
}

(* Open loop: [seconds × rate] ops offered on a fixed schedule, each op
   due whether or not earlier ops have finished, so a stall shows up in
   the latency of every op queued behind it.  [step k] returns whether
   the op succeeded; only successful ops give a latency sample.

   The schedule runs in reference time.  At the start and after every
   25 ms worth of ops — about as long as the host's slow stretches
   last — [pace ()] runs untimed (the phase clock, and with it the
   schedule, stops while it runs) and returns the host speed factor;
   the gaps until the next call are stretched by it.  On a host running 1.5× slow, the generator offers [rate / 1.5]
   ops per wall second: the same share of what the program can serve,
   so a slow host does not push the loop up its queueing curve.  The
   generator spins rather than sleeps: a sleep overshoots by more than
   the gap between ops. *)
let open_loop ~seconds ~rate ~pace step =
  start_phase ();
  let latencies = Samples.create () in
  let n = int_of_float (seconds *. rate) in
  let per_pace = max 1 (int_of_float (rate /. 40.0)) in
  let due = ref (clock ()) and gap = ref 0.0 in
  let max_late = ref 0.0 in
  for k = 0 to n - 1 do
    if k mod per_pace = 0 then gap := untimed pace /. rate;
    if k > 0 then due := !due +. !gap;
    while clock () < !due do
      ()
    done;
    max_late := Float.max !max_late (clock () -. !due);
    if step k then Samples.add latencies (1000.0 *. (clock () -. !due))
  done;
  if n > 0 then ignore (untimed pace);
  { latencies; ops = n; max_lateness_ms = 1000.0 *. !max_late }

(* Wall-clock microseconds per call of [f]: the median over five
   batches of [reps] back-to-back calls (a batch, not a call, is timed,
   so the clock's resolution does not swamp microsecond calls). *)
let probe_us ~reps f =
  Util.median
    (Array.init 5 (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           ignore (Sys.opaque_identity (f ()))
         done;
         1e6 *. (now () -. t0) /. float_of_int reps))
