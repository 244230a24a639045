type window = { window_start : int; window_length : int }

type alert = {
  subject : string;
  window : window;
  count : int;
  threshold : int;
}

(* Correlation keeps its string-error public API; the engine's typed
   errors are rendered at this boundary. *)
let secret_count cluster ~auditor criteria =
  match
    Auditor_engine.run cluster ~delivery:Executor.Count_only ~auditor
      (Auditor_engine.Text criteria)
  with
  | Ok audit -> Ok audit.Auditor_engine.count
  | Error e -> Error (Audit_error.to_string e)

let subject_criteria ~subject_attr ~subject ?extra_criteria () =
  let base =
    Printf.sprintf {|%s = "%s"|} (Attribute.to_string subject_attr) subject
  in
  match extra_criteria with
  | None -> base
  | Some extra -> Printf.sprintf "%s && (%s)" base extra

let count_by_subject cluster ~auditor ~subject_attr ~subjects () =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | subject :: rest -> (
      let criteria = subject_criteria ~subject_attr ~subject () in
      match secret_count cluster ~auditor criteria with
      | Ok count -> go ((subject, count) :: acc) rest
      | Error _ as e -> e)
  in
  go [] subjects

let sliding_window_alerts cluster ~auditor ~subject_attr ~subjects
    ~from_time ~to_time ~window_seconds ~step_seconds ~threshold () =
  if window_seconds <= 0 || step_seconds <= 0 then
    invalid_arg "Correlation.sliding_window_alerts: non-positive window/step";
  let rec windows start acc =
    if start >= to_time then List.rev acc
    else
      windows (start + step_seconds)
        ({ window_start = start; window_length = window_seconds } :: acc)
  in
  let windows = windows from_time [] in
  let rec per_subject acc = function
    | [] -> Ok (List.rev acc)
    | subject :: rest -> (
      let rec per_window acc = function
        | [] -> Ok acc
        | window :: more -> (
          let extra =
            Printf.sprintf "time >= %d && time < %d" window.window_start
              (window.window_start + window.window_length)
          in
          let criteria =
            subject_criteria ~subject_attr ~subject ~extra_criteria:extra ()
          in
          match secret_count cluster ~auditor criteria with
          | Error _ as e -> e
          | Ok count ->
            if count >= threshold then
              per_window
                ({ subject; window; count; threshold } :: acc)
                more
            else per_window acc more)
      in
      match per_window acc windows with
      | Ok acc -> per_subject acc rest
      | Error _ as e -> e)
  in
  Result.map List.rev (per_subject [] subjects)
