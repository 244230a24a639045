(* Shared plumbing for the reproduction harness: section headers and
   plain-text tables. *)

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n" title

let print_table ~header rows =
  let columns = List.length header in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            max acc (String.length (try List.nth row i with _ -> "")))
          (String.length h) rows)
      header
  in
  let line cells =
    String.concat "  "
      (List.map2 (fun c w -> Printf.sprintf "%-*s" w c) cells widths)
  in
  print_endline (line header);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter
    (fun row ->
      let row =
        if List.length row < columns then
          row @ List.init (columns - List.length row) (fun _ -> "")
        else row
      in
      print_endline (line row))
    rows
