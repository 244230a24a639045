type aggregate_fault = No_home | String_column | Mixed_kinds

type t =
  | Unknown_attribute of { attr : string }
  | Parse_error of { input : string; message : string }
  | Unreachable of { node : Net.Node_id.t; during : string }
  | Aggregate_error of { attr : string; fault : aggregate_fault }
  | No_matching_records
  | Byzantine_fault of {
      accused : Net.Node_id.t list;
      during : string;
      detail : string;
    }

(* The renderings predate the typed variant; tests and CLI output
   depend on these exact strings. *)
let to_string = function
  | Unknown_attribute { attr } ->
    Printf.sprintf "attribute %s is not supported by any DLA node" attr
  | Parse_error { message; _ } -> "parse error: " ^ message
  | Unreachable { node; during } ->
    Printf.sprintf "node %s unreachable during %s"
      (Net.Node_id.to_string node) during
  | Aggregate_error { attr; fault = No_home } ->
    Printf.sprintf "no DLA node supports attribute %s" attr
  | Aggregate_error { fault = String_column; _ } ->
    "cannot sum a string attribute"
  | Aggregate_error { fault = Mixed_kinds; _ } ->
    "mixed value kinds under the attribute"
  | No_matching_records -> "no matching records"
  | Byzantine_fault { accused; during; detail } ->
    Printf.sprintf "byzantine fault during %s: %s (accused: %s)" during detail
      (String.concat ", " (List.map Net.Node_id.to_string accused))

let of_partition ~during ~node ~reason =
  Unreachable { node; during = Printf.sprintf "%s (%s)" during reason }

let pp fmt e = Format.pp_print_string fmt (to_string e)
