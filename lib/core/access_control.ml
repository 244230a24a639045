module Map_string = Map.Make (String)

type t = { mutable table : Glsn.Set.t Map_string.t }

let create () = { table = Map_string.empty }

let grant t ~ticket_id glsn =
  let existing =
    Option.value ~default:Glsn.Set.empty (Map_string.find_opt ticket_id t.table)
  in
  t.table <- Map_string.add ticket_id (Glsn.Set.add glsn existing) t.table

let revoke t ~ticket_id glsn =
  match Map_string.find_opt ticket_id t.table with
  | None -> ()
  | Some set -> t.table <- Map_string.add ticket_id (Glsn.Set.remove glsn set) t.table

let glsns_of t ~ticket_id =
  Option.value ~default:Glsn.Set.empty (Map_string.find_opt ticket_id t.table)

let authorizes t ~ticket_id glsn = Glsn.Set.mem glsn (glsns_of t ~ticket_id)

let ticket_ids t = List.map fst (Map_string.bindings t.table)

let entries t =
  List.map
    (fun (id, set) -> (id, Glsn.Set.elements set))
    (Map_string.bindings t.table)

let tamper_move t ~glsn ~from_ticket ~to_ticket =
  if authorizes t ~ticket_id:from_ticket glsn then begin
    revoke t ~ticket_id:from_ticket glsn;
    grant t ~ticket_id:to_ticket glsn;
    true
  end
  else false

