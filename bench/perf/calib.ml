(* Host speed reference.

   On a shared virtual machine the host runs this process at two speeds:
   full speed, and 1.5–2× slower while other tenants contend for the
   core.  Slow stretches last tens of milliseconds (a reading's
   correlation with the one 20 ms later is about 0.4, with the one
   100 ms later under 0.1), and take from a tenth to most of a minute.
   A process cannot see them in its own timings, and a reading taken
   between two windows of ops says almost nothing about the host's
   speed during either.

   So while a set-up build or a measured phase runs, an interval timer
   interrupts it every [tick_s] seconds to time a fixed reference
   kernel, outside the workload's clocks.  The kernels use the standard
   library only, allocate nothing and are warm in the cache when timed,
   so no change to this repository can make them faster or slower.  A
   reading is a speed factor: 1.0 at the reference speed, 1.6 on a host
   running 1.6× slow.  A window of ops gets the mean of the readings
   taken during it, and each end-to-end timing is divided by its
   window's factor (a throughput is multiplied), so it reads as at the
   reference speed.  The results file keeps every window's factor and
   the raw set-up times.

   Different code slows by different amounts on a busy host, so there
   are two kernels, and a workload's readings time the one whose
   slowdowns its own follow ([part]): limb arithmetic for the
   compute-bound submit path and the Pohlig–Hellman sessions, table
   lookups for the engine-bound audits and standing criteria.  Over
   eight runs of each workload on a host running 1.5–2.5× slow, the
   spread between quartiles of runs' p50 was 2.5% (session_ph) and 3.5%
   (ingest) read on the arithmetic against 5–22% on the lookups, and
   2.0% (stream) and 2.3% (audit_mix) on the lookups against 7–11% on
   the arithmetic; raw, it was 32–96%. *)

(* Schoolbook products of two 32-limb numbers on 26-bit limbs: 1.5 KB
   of data. *)
let limbs = 32
let limb_mask = (1 lsl 26) - 1
let xa = Array.init limbs (fun i -> Util.Draw.mix (i + 1) land limb_mask)
let xb = Array.init limbs (fun i -> Util.Draw.mix (i + 1001) land limb_mask)
let prod = Array.make (2 * limbs) 0

let arithmetic () =
  let acc = ref 0 in
  for _ = 1 to 60 do
    Array.fill prod 0 (2 * limbs) 0;
    for i = 0 to limbs - 1 do
      let ai = xa.(i) in
      let carry = ref 0 in
      for j = 0 to limbs - 1 do
        let t = prod.(i + j) + (ai * xb.(j)) + !carry in
        prod.(i + j) <- t land limb_mask;
        carry := t lsr 26
      done;
      prod.(i + limbs) <- !carry
    done;
    acc := !acc + prod.(limbs)
  done;
  ignore (Sys.opaque_identity !acc)

(* String hashing and lookups in a 1,024-key table: about 40 KB, which
   [warm] brings into the cache first. *)
let keys = Array.init 1024 (fun i -> Printf.sprintf "U%07d-%d" (Util.Draw.mix i land 0xffffff) i)

let table =
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  h

let lookups n =
  let acc = ref 0 in
  for r = 0 to n - 1 do
    acc := !acc + Hashtbl.find table keys.(r * 2654435761 land 1023)
  done;
  ignore (Sys.opaque_identity !acc)

let warm () = lookups 1024

type part = Arithmetic | Lookups

let part_name = function Arithmetic -> "arithmetic" | Lookups -> "lookups"

(* The kernel the readings time.  Set-up builds, which are mostly
   submits, always read the arithmetic; a workload sets the kernel of
   its measured phase. *)
let part = ref Arithmetic

(* Each kernel's time at the reference speed: its time in the calmest
   1% of windows of 40 runs of the workloads on a 2-vCPU Intel Xeon
   virtual machine shared with other tenants. *)
let nominal_ms = function Arithmetic -> 0.102 | Lookups -> 0.091

(* Interval between readings: a reading takes about 1% of it. *)
let tick_s = 0.01

(* One reading of [p], outside the phase clock. *)
let read p =
  Measure.untimed (fun () ->
      let timed f =
        let t0 = Util.now () in
        f ();
        1000.0 *. (Util.now () -. t0) /. nominal_ms p
      in
      match p with
      | Arithmetic -> timed arithmetic
      | Lookups ->
        warm ();
        timed (fun () -> lookups 2400))

(* Readings since the current window opened, and the factor of every
   closed window of the measured phase.  A value recorded in epoch [e]
   (after [e] windows closed) belongs to window [e]. *)
let pending = ref []
let windows = Util.Samples.create ()

(* Close the current window: the mean of the readings taken during it,
   or a fresh reading if the window was shorter than a tick. *)
let drain () =
  let f =
    match !pending with
    | [] -> read !part
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  pending := [];
  f

(* [f ()] with the timer taking readings. *)
let ticking f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> pending := read !part :: !pending))
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = tick_s; it_value = tick_s });
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm previous)
    f

(* End a window of the measured phase; returns its factor.  Called once
   before the first window, which discards the readings taken before
   the phase started. *)
let sample () =
  let f = drain () in
  Util.Samples.add windows f;
  Util.Samples.epoch := Util.Samples.length windows;
  f

(* The measured phase's median window factor. *)
let factor () =
  if Util.Samples.length windows = 0 then 1.0 else Util.median (Util.Samples.to_array windows)

(* The values of [s], each divided ([times]) or multiplied ([rates]) by
   its window's factor. *)
let scaled op s =
  let w = Util.Samples.to_array windows in
  let last = Array.length w - 1 in
  Array.map2 (fun v e -> op v w.(min e last)) (Util.Samples.to_array s) (Util.Samples.epochs s)

let times = scaled ( /. )
let rates = scaled ( *. )

(* [f ()] and the speed factor while it ran, read on the arithmetic.
   For set-up builds, which are single calls lasting seconds; time them
   with the phase clock, which leaves the readings out. *)
let during f =
  let measured = !part in
  part := Arithmetic;
  ignore (drain ());
  Fun.protect ~finally:(fun () -> part := measured) (fun () ->
      let r = ticking f in
      (r, drain ()))

let meta () =
  Obs.Json.Obj
    [ ("kernel", Obs.Json.Str (part_name !part));
      ("median_factor", Obs.Json.Num (factor ()));
      ("nominal_ms", Obs.Json.Num (nominal_ms !part));
      ("tick_s", Obs.Json.Num tick_s);
      ( "window_factors",
        Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Num x) (Util.Samples.to_array windows))) )
    ]
