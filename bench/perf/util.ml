(* Clock, order statistics, counter and GC snapshots, and the seeded
   input stream shared by every workload. *)

(* Monotonic wall clock, seconds, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let s = sorted_copy xs in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (the default "exclusive" method), so spreads printed
   here match the ones Python derives from the same values. *)
let quartiles xs =
  let s = sorted_copy xs in
  let ld = Array.length s in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = if n <= 0 then 0.0 else float_of_int a /. float_of_int n

(* Growable float buffer for latency samples.  Each value also keeps the
   [epoch] it was added in: the number of host speed readings taken so
   far (see [Calib]), which places it between two of them. *)
module Samples = struct
  let epoch = ref 0

  type t = { mutable data : float array; mutable epochs : int array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; epochs = Array.make 1024 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let grow a fill =
        let bigger = Array.make (2 * t.len) fill in
        Array.blit a 0 bigger 0 t.len;
        bigger
      in
      t.data <- grow t.data 0.0;
      t.epochs <- grow t.epochs 0
    end;
    t.data.(t.len) <- v;
    t.epochs.(t.len) <- !epoch;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let epochs t = Array.sub t.epochs 0 t.len
  let length t = t.len
end

(* Snapshot of the process-wide counter registry, plus the sample count
   of every summary as "count:<name>" (a library span [s] completes as
   summary "span.<s>"); per-phase costs are
   differences of two snapshots.  Counts made inside [aside] are left
   out of every snapshot, so no difference includes them. *)
module Counters = struct
  type t = (string, int) Hashtbl.t

  let get (t : t) k = Option.value ~default:0 (Hashtbl.find_opt t k)

  let raw () : t =
    let h = Hashtbl.create 256 in
    List.iter (fun (k, v) -> Hashtbl.replace h k v) (Obs.Metrics.counters ());
    List.iter
      (fun (k, s) -> Hashtbl.replace h ("count:" ^ k) s.Obs.Metrics.count)
      (Obs.Metrics.summaries ());
    h

  let set_aside : t = Hashtbl.create 16

  let snapshot () =
    let h = raw () in
    Hashtbl.iter (fun k v -> Hashtbl.replace h k (get h k - v)) set_aside;
    h

  let delta ~before ~after k = get after k - get before k

  let aside f =
    let before = raw () in
    let r = f () in
    Hashtbl.iter
      (fun k v ->
        let d = v - get before k in
        if d <> 0 then Hashtbl.replace set_aside k (get set_aside k + d))
      (raw ());
    r
end

(* GC counts, with those made inside [aside] left out. *)
module Gc_snap = struct
  type t = { minor : float; promoted : float; majors : int }

  let current () =
    let s = Gc.quick_stat () in
    { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words;
      majors = s.Gc.major_collections }

  let set_aside = ref { minor = 0.0; promoted = 0.0; majors = 0 }

  let take () =
    let s = current () and a = !set_aside in
    { minor = s.minor -. a.minor; promoted = s.promoted -. a.promoted; majors = s.majors - a.majors }

  let aside f =
    let s0 = current () in
    let r = f () in
    let s1 = current () and a = !set_aside in
    set_aside :=
      { minor = a.minor +. s1.minor -. s0.minor;
        promoted = a.promoted +. s1.promoted -. s0.promoted;
        majors = a.majors + s1.majors - s0.majors };
    r

  let heap_peak_mb () =
    let s = Gc.quick_stat () in
    float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
end

(* Seeded input stream.  Every generated value is a pure function of
   (seed, stream, index, draw), so the correctness oracle can
   regenerate any input instead of keeping it alive next to the
   program's own copy. *)
module Draw = struct
  let mix x =
    let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
    let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
    x lxor (x lsr 31)

  let int ~seed ~stream i k bound =
    let h = mix (mix (mix (mix seed + stream) + i) + k) in
    (h land max_int) mod bound
end

(* Order-sensitive digest of a glsn list: lets a run keep one int per
   verdict for the post-run oracle check instead of the list itself. *)
let digest_glsns glsns =
  List.fold_left
    (fun acc g -> Draw.mix (acc + Dla.Glsn.to_int g))
    (List.length glsns) glsns
