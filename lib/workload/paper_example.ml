open Dla

let d = Attribute.defined
let u = Attribute.undefined

let attributes =
  [ d "time"; d "id"; d "protocl"; d "tid"; u 1; u 2; u 3 ]

let row ~time ~id ~protocl ~tid ~c1 ~c2 ~c3 =
  [ (d "time", Value.Time (Time_util.parse_paper time));
    (d "id", Value.Str id);
    (d "protocl", Value.Str protocl);
    (d "tid", Value.Str tid);
    (u 1, Value.Int c1);
    (u 2, Value.money_of_float c2);
    (u 3, Value.Str c3)
  ]

let rows =
  [ row ~time:"20:18:35/05/12/2002" ~id:"U1" ~protocl:"UDP" ~tid:"T1100265"
      ~c1:20 ~c2:23.45 ~c3:"signature";
    row ~time:"20:20:35/05/12/2002" ~id:"U2" ~protocl:"UDP" ~tid:"T1100265"
      ~c1:34 ~c2:345.11 ~c3:"evidence.";
    row ~time:"20:23:35/05/12/2002" ~id:"U1" ~protocl:"UDP" ~tid:"T1100267"
      ~c1:45 ~c2:235.00 ~c3:"bank";
    row ~time:"20:23:38/05/12/2002" ~id:"U2" ~protocl:"TCP" ~tid:"T1100265"
      ~c1:18 ~c2:45.02 ~c3:"salary";
    row ~time:"20:25:35/05/12/2002" ~id:"U3" ~protocl:"TCP" ~tid:"T1100267"
      ~c1:53 ~c2:678.75 ~c3:"account"
  ]

(* Table 6: which ticket logs which rows, as (ticket id, row indexes). *)
let ticket_assignment = [ ("T1", [ 0; 2 ]); ("T2", [ 1; 3 ]); ("T3", [ 4 ]) ]

let origin_of_row row =
  match List.assoc_opt (d "id") row with
  | Some (Value.Str "U1") -> Net.Node_id.User 1
  | Some (Value.Str "U2") -> Net.Node_id.User 2
  | Some (Value.Str "U3") -> Net.Node_id.User 3
  | Some _ | None -> Net.Node_id.User 0

let ticket_of_row index =
  match
    List.find_opt (fun (_, indexes) -> List.mem index indexes) ticket_assignment
  with
  | Some (id, _) -> id
  | None -> invalid_arg "Paper_example: row without ticket"

let build ?(seed = 0) ?net () =
  let cluster = Cluster.create ~seed ?net Fragmentation.paper_partition in
  let tickets =
    List.map
      (fun (ticket_id, indexes) ->
        let origin = origin_of_row (List.nth rows (List.hd indexes)) in
        ( ticket_id,
          Cluster.issue_ticket cluster ~id:ticket_id ~principal:origin
            ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600 ))
      ticket_assignment
  in
  let glsns =
    List.mapi
      (fun index row ->
        let ticket = List.assoc (ticket_of_row index) tickets in
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin:(origin_of_row row)
               ~attributes:row)
        with
        | Ok glsn -> glsn
        | Error e -> invalid_arg ("Paper_example.build: " ^ e))
      rows
  in
  (cluster, glsns)

let build_centralized () =
  let central = Centralized.create ~auditor:Net.Node_id.Auditor () in
  let glsns =
    List.map
      (fun row ->
        Centralized.submit central ~origin:(origin_of_row row) ~attributes:row)
      rows
  in
  (central, glsns)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_value attr value =
  match (attr, value) with
  | _, Value.Time t -> Time_util.format_paper t
  | _, v -> Value.to_string v

let render_table ~title ~columns ~rows_data =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows_data)
      columns
  in
  let render_row cells =
    String.concat "  "
      (List.map2 (fun cell width -> Printf.sprintf "%-*s" width cell) cells widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (render_row columns ^ "\n");
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths) ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows_data;
  Buffer.contents buf

let render_global_table cluster glsns =
  let columns =
    "glsn" :: List.map Attribute.to_string attributes
  in
  let rows_data =
    List.map
      (fun glsn ->
        match Cluster.record_of cluster glsn with
        | None -> [ Glsn.to_string glsn ]
        | Some record ->
          Glsn.to_string glsn
          :: List.map
               (fun attr ->
                 match Log_record.find record attr with
                 | Some v -> render_value attr v
                 | None -> "")
               attributes)
      glsns
  in
  render_table ~title:"TABLE 1: GLOBAL EVENT LOG" ~columns ~rows_data

let render_fragment_tables cluster =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i node ->
      let store = Cluster.store_of cluster node in
      let supported =
        List.sort Attribute.compare
          (Attribute.Set.elements (Storage.supported store))
      in
      let columns = "glsn" :: List.map Attribute.to_string supported in
      let rows_data =
        List.map
          (fun glsn ->
            let fragment =
              Option.value ~default:[] (Storage.fragment_of store glsn)
            in
            Glsn.to_string glsn
            :: List.map
                 (fun attr ->
                   match List.assoc_opt attr fragment with
                   | Some v -> render_value attr v
                   | None -> "")
                 supported)
          (Storage.glsns store)
      in
      Buffer.add_string buf
        (render_table
           ~title:
             (Printf.sprintf "TABLE %d: EVENT LOG FRAGMENTS STORED IN %s"
                (i + 2)
                (Net.Node_id.to_string node))
           ~columns ~rows_data);
      Buffer.add_char buf '\n')
    (Cluster.nodes cluster);
  Buffer.contents buf

let render_acl_table cluster =
  let store = Cluster.store_of cluster (List.hd (Cluster.nodes cluster)) in
  let rows_data =
    List.map
      (fun (ticket_id, glsns) ->
        [ ticket_id;
          "W/R";
          String.concat ", " (List.map Glsn.to_string glsns)
        ])
      (Access_control.entries (Storage.acl store))
  in
  render_table ~title:"TABLE 6: ACCESS CONTROL TABLE"
    ~columns:[ "Ticket ID"; "Type"; "glsn" ] ~rows_data
