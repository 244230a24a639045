type coverage = {
  cells_total : int;
  cells_observed : int;
  records_fully_covered : int;
  records_total : int;
}

let fraction c =
  if c.cells_total = 0 then 0.0
  else float_of_int c.cells_observed /. float_of_int c.cells_total

let coalition_coverage cluster ~coalition =
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  let saw value =
    List.exists
      (fun node -> Net.Ledger.saw_plaintext ledger ~node value)
      coalition
  in
  let glsns = Cluster.all_glsns cluster in
  let totals =
    List.fold_left
      (fun (cells_total, cells_observed, full) glsn ->
        match Cluster.record_of cluster glsn with
        | None -> (cells_total, cells_observed, full)
        | Some record ->
          let cells = Log_record.attributes record in
          let observed =
            List.length
              (List.filter
                 (fun cell -> saw (Log_record.cell_to_string cell))
                 cells)
          in
          ( cells_total + List.length cells,
            cells_observed + observed,
            if observed = List.length cells then full + 1 else full ))
      (0, 0, 0) glsns
  in
  let cells_total, cells_observed, records_fully_covered = totals in
  {
    cells_total;
    cells_observed;
    records_fully_covered;
    records_total = List.length glsns;
  }

let sweep cluster =
  let nodes = Cluster.nodes cluster in
  List.mapi
    (fun i _ ->
      let coalition = List.filteri (fun j _ -> j <= i) nodes in
      (i + 1, coalition_coverage cluster ~coalition))
    nodes
