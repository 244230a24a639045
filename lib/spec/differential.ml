type ('net, 'r) case_over = {
  protocol : string;
  input : string;
  run : 'net -> 'r;
  oracle : 'r;
  equal : 'r -> 'r -> bool;
  show : 'r -> string;
  specs : 'r -> View_auditor.spec list;
}

type 'r case = (Net.Network.t, 'r) case_over
type 'r fleet_case = (Net.Network.t list, 'r) case_over

let counterexample_path () =
  match Sys.getenv_opt "SPEC_COUNTEREXAMPLE_OUT" with
  | Some p when String.trim p <> "" -> p
  | _ -> "spec-counterexample.txt"

let write_counterexample text =
  let oc =
    open_out_gen [ Open_creat; Open_append ] 0o644 (counterexample_path ())
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      output_char oc '\n')

let verify ~schedule_name ~execute c =
  let got, transcript = Transcript.record (fun () -> execute c.run) in
  let failure msg =
    write_counterexample msg;
    Error msg
  in
  if not (c.equal got c.oracle) then
    failure
      (Printf.sprintf
         "%s | schedule=%s | input=%s | oracle says %s but protocol returned \
          %s"
         c.protocol schedule_name c.input (c.show c.oracle) (c.show got))
  else
    match View_auditor.audit ~specs:(c.specs got) transcript with
    | [] -> Ok ()
    | violations ->
      failure
        (Printf.sprintf "%s | schedule=%s | input=%s | view violations:\n  %s"
           c.protocol schedule_name c.input
           (String.concat "\n  "
              (List.map View_auditor.violation_to_string violations)))

let check ~schedule c =
  verify ~schedule_name:(Schedule.name schedule)
    ~execute:(Schedule.run schedule) c

let check_fleet ~schedule ~count c =
  verify
    ~schedule_name:(Printf.sprintf "%s x%d" (Schedule.name schedule) count)
    ~execute:(Schedule.run_many schedule ~count)
    c
