let summary_fields (s : Metrics.summary) =
  [ ("count", Json.Num (float_of_int s.count));
    ("min", Json.Num s.min);
    ("max", Json.Num s.max);
    ("mean", Json.Num s.mean);
    ("p50", Json.Num s.p50);
    ("p95", Json.Num s.p95);
    ("p99", Json.Num s.p99)
  ]

let json_of ?experiment ?machine ?(m = Metrics.global) () =
  let counters =
    List.map (fun (name, v) -> (name, Json.Num (float_of_int v)))
      (Metrics.counters ~m ())
  in
  let histograms =
    List.map (fun (name, s) -> (name, Json.Obj (summary_fields s)))
      (Metrics.summaries ~m ())
  in
  Json.Obj
    ((match experiment with
     | Some e -> [ ("experiment", Json.Str e) ]
     | None -> [])
    @ (match machine with
      | Some fields ->
        [ ("machine",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) fields))
        ]
      | None -> [])
    @ [ ("counters", Json.Obj counters); ("histograms", Json.Obj histograms) ])

let summary ?(m = Metrics.global) ?(trace = Trace.global) () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let counters = Metrics.counters ~m () in
  if counters <> [] then begin
    line "counters:";
    List.iter (fun (name, v) -> line "  %-40s %d" name v) counters
  end;
  let hists = Metrics.summaries ~m () in
  if hists <> [] then begin
    line "histograms (ms):";
    List.iter
      (fun (name, (s : Metrics.summary)) ->
        line "  %-40s n=%-5d p50=%.2f p95=%.2f p99=%.2f max=%.2f" name
          s.count s.p50 s.p95 s.p99 s.max)
      hists
  end;
  let spans = Trace.spans ~t:trace () in
  if spans <> [] then begin
    line "spans (completion order):";
    List.iter
      (fun (sp : Trace.span) ->
        line "  %s%-*s %.2f ms"
          (String.make (2 * sp.depth) ' ')
          (40 - (2 * sp.depth))
          sp.name sp.duration_ms)
      spans
  end;
  Buffer.contents buf

let write_file ~path doc =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.pretty doc))

type read_error =
  | Missing_file of string
  | Malformed of { path : string; detail : string }

let read_error_to_string = function
  | Missing_file path -> Printf.sprintf "%s: no such file" path
  | Malformed { path; detail } -> Printf.sprintf "%s: %s" path detail

(* A counter is an integer that fits an OCaml int; anything else in a
   counters object (a fraction, an overflow, a string) is a corrupt
   document, not a value to round. *)
let counter_of_json = function
  | Json.Num n
    when Float.is_integer n
         && n >= Float.of_int min_int
         && n < -.Float.of_int min_int ->
    Some (int_of_float n)
  | _ -> None

let read_counters ~path =
  if not (Sys.file_exists path) then Error (Missing_file path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error detail -> Error (Malformed { path; detail })
    | text -> (
      match Json.parse text with
      | Error e -> Error (Malformed { path; detail = e })
      | Ok doc -> (
        match Json.member "counters" doc with
        | Some (Json.Obj fields) ->
          let rec counters acc = function
            | [] -> Ok (List.rev acc)
            | (name, v) :: rest -> (
              match counter_of_json v with
              | Some n -> counters ((name, n) :: acc) rest
              | None ->
                Error
                  (Malformed
                     {
                       path;
                       detail =
                         Printf.sprintf "counter %S is not an integer: %s" name
                           (Json.to_string v);
                     }))
          in
          counters [] fields
        | _ -> Error (Malformed { path; detail = "no counters object" })))
