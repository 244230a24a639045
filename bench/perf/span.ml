(* Wall-clock spans recorded from the benchmark's own files, around the
   calls it makes into each layer's public functions.  Spans stay in
   memory until the workload ends; nothing inside the library is
   instrumented.  Disabled (the untraced runs), [with_span] is one
   branch and a call. *)

type t = {
  id : int;
  op : int;  (** the op this span belongs to; -1 for probes *)
  name : string;
  parent : int;  (** span id of the caller; -1 for a root *)
  start : float;
  mutable stop : float;
  minor0 : float;
  mutable minor_words : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let epoch = ref 0.0

let with_span ~op name f =
  if not !enabled then f ()
  else begin
    let span =
      { id = !next_id; op; name;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        start = Util.now (); stop = 0.0; minor0 = Gc.minor_words ();
        minor_words = 0.0 }
    in
    incr next_id;
    stack := span :: !stack;
    Fun.protect
      ~finally:(fun () ->
        span.stop <- Util.now ();
        span.minor_words <- Gc.minor_words () -. span.minor0;
        stack := List.tl !stack;
        recorded := span :: !recorded)
      f
  end

let spans () = List.rev !recorded
let duration_ms s = 1000.0 *. (s.stop -. s.start)

(* Self time: the span's duration minus the part its children cover
   (children are strictly nested, so their durations simply add). *)
let self_ms all =
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (duration_ms s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    all;
  fun s ->
    duration_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id)

(* Median duration (ms) of the spans with this name. *)
let median_ms name =
  Util.median
    (Array.of_list
       (List.filter_map
          (fun s -> if s.name = name then Some (duration_ms s) else None)
          (spans ())))

let to_json () =
  Obs.Json.List
    (List.map
       (fun s ->
         Obs.Json.Obj
           [ ("id", Obs.Json.Num (float_of_int s.id));
             ("op", Obs.Json.Num (float_of_int s.op));
             ("name", Obs.Json.Str s.name);
             ("parent", Obs.Json.Num (float_of_int s.parent));
             ("start_ms", Obs.Json.Num (1000.0 *. (s.start -. !epoch)));
             ("end_ms", Obs.Json.Num (1000.0 *. (s.stop -. !epoch)));
             ("minor_words", Obs.Json.Num s.minor_words)
           ])
       (spans ()))

(* Per-layer table: for every span name, its call count, self time and
   share of the traced ops' wall time.  Probe spans get rows of their
   own.  A span's layer is the module prefix of its name. *)
let print_table ~workload =
  let all = spans () in
  let self = self_ms all in
  let op_wall =
    List.fold_left
      (fun acc s -> if s.parent < 0 && s.op >= 0 then acc +. duration_ms s else acc)
      0.0 all
  in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = (s.op < 0, s.name) in
      let count, ms = Option.value ~default:(0, 0.0) (Hashtbl.find_opt rows key) in
      Hashtbl.replace rows key (count + 1, ms +. self s))
    all;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows []) in
  Printf.printf "\n[%s] per-layer self time (bench-side spans)\n" workload;
  Printf.printf "  %-34s %8s %12s %12s %9s\n" "span" "calls" "self ms" "ms/call" "op share";
  List.iter
    (fun ((probe, name), (count, ms)) ->
      Printf.printf "  %-34s %8d %12.3f %12.4f %9s\n" name count ms
        (ms /. float_of_int count)
        (if probe then "probe"
         else if op_wall > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. ms /. op_wall)
         else "-"))
    rows
