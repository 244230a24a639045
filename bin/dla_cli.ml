(* dla-cli: interactive front end to the confidential-auditing system.

   Subcommands:
     tables       render the paper's Tables 1-6 from a live cluster
     audit        run a confidential audit query over a chosen workload
     batch        run several queries as one session (shared-predicate CSE)
     count        secret counting: only the cardinality reaches the auditor
     correlate    cluster-wide event correlation (intrusion workload)
     certify      majority-vote + threshold-sign an audit verdict
     integrity    integrity sweep, optionally with injected tampering
     archive      seal the log into a hash-chained epoch
     membership   grow an anonymous membership chain; optionally cheat
     metrics      confidentiality-metric sweeps (eqs 10-13)
     exposure     coalition-exposure curve from the observation ledger
     export/import  logical snapshot backup / restore (layout migration)
     shell        interactive query shell *)

open Cmdliner
open Dla

let build_workload name seed =
  let cluster = Cluster.create ~seed Fragmentation.paper_partition in
  match name with
  | "paper" ->
    let cluster, _ = Workload.Paper_example.build ~seed () in
    Ok cluster
  | "ecommerce" ->
    let config = { Workload.Ecommerce.default_config with seed } in
    let _ = Workload.Ecommerce.populate cluster config in
    Ok cluster
  | "intrusion" ->
    let config = { Workload.Intrusion.default_config with seed } in
    let _ = Workload.Intrusion.populate cluster config in
    Ok cluster
  | other -> Error (Printf.sprintf "unknown workload %S" other)

let workload_arg =
  let doc = "Workload to populate the cluster with: paper, ecommerce or intrusion." in
  Arg.(value & opt string "paper" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Deterministic seed for the run." in
  Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

(* ------------------------------------------------------------------ *)

let tables_cmd =
  let run seed =
    let cluster, glsns = Workload.Paper_example.build ~seed () in
    print_string (Workload.Paper_example.render_global_table cluster glsns);
    print_newline ();
    print_string (Workload.Paper_example.render_fragment_tables cluster);
    print_string (Workload.Paper_example.render_acl_table cluster)
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Render the paper's Tables 1-6 from a live cluster")
    Term.(const run $ seed_arg)

(* ------------------------------------------------------------------ *)

let audit_cmd =
  let query_arg =
    let doc =
      "Auditing criteria, e.g. 'id = \"U1\" && C2 > 100.00'.  Attributes: \
       time, id, protocl, tid, ip, eid, C1..C6."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let run workload seed query =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster -> (
      match
        try
          Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
            (Auditor_engine.Text query)
        with Net.Network.Partitioned { dst; reason; _ } ->
          Error (Audit_error.of_partition ~during:"audit" ~node:dst ~reason)
      with
      | Error e ->
        prerr_endline (Audit_error.to_string e);
        exit 1
      | Ok audit ->
        Format.printf "%a@." (Auditor_engine.pp_audit cluster) audit;
        let ledger = Net.Network.ledger (Cluster.net cluster) in
        let plaintext_at_auditor =
          List.length
            (List.filter
               (fun (s, _, _) -> s = Net.Ledger.Plaintext)
               (Net.Ledger.observations ledger ~node:Net.Node_id.Auditor))
        in
        Format.printf "auditor plaintext observations: %d@." plaintext_at_auditor)
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Run a confidential audit query")
    Term.(const run $ workload_arg $ seed_arg $ query_arg)

(* ------------------------------------------------------------------ *)

let integrity_cmd =
  let tamper_arg =
    let doc = "Number of records to tamper with before the sweep." in
    Arg.(value & opt int 0 & info [ "tamper" ] ~docv:"N" ~doc)
  in
  let run workload seed tamper =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      let glsns = Cluster.all_glsns cluster in
      let victims = List.filteri (fun i _ -> i < tamper) glsns in
      List.iter
        (fun glsn ->
          let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
          ignore
            (Storage.tamper_set store ~glsn ~attr:(Attribute.undefined 2)
               (Value.Money 9999999)))
        victims;
      if tamper > 0 then
        Printf.printf "tampered %d record(s) at P1\n" (List.length victims);
      let violations =
        Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0)
      in
      Printf.printf "sweep over %d records: %d violation(s)\n"
        (List.length glsns) (List.length violations);
      List.iter
        (fun (glsn, v) ->
          Printf.printf "  %s: %s\n" (Glsn.to_string glsn)
            (Integrity.violation_to_string v))
        violations
  in
  Cmd.v
    (Cmd.info "integrity" ~doc:"Run the distributed integrity cross-check")
    Term.(const run $ workload_arg $ seed_arg $ tamper_arg)

(* ------------------------------------------------------------------ *)

let membership_cmd =
  let rogue_arg =
    let doc = "Have a member reuse its single-use invitation authority." in
    Arg.(value & flag & info [ "rogue" ] ~doc)
  in
  let members_arg =
    let doc = "Number of members to grow the cluster to." in
    Arg.(value & opt int 4 & info [ "n"; "members" ] ~docv:"N" ~doc)
  in
  let run seed rogue members =
    let net = Net.Network.of_config (Net.Config.make ()) in
    let m = Membership.found ~net ~authority_seed:seed ~identity:"org-0" in
    let rec grow last i =
      if i < members then begin
        match
          Membership.invite m ~inviter:last
            ~invitee_identity:(Printf.sprintf "org-%d" i)
            ~pp:(Printf.sprintf "store %d attrs" (2 + (i mod 3)))
            ~sc:"99.9% uptime"
        with
        | Ok member -> grow member.Membership.pseudonym (i + 1)
        | Error e -> failwith e
      end
    in
    let founder = List.hd (Membership.members m) in
    grow founder.Membership.pseudonym 1;
    List.iter
      (fun mem ->
        Printf.printf "%-8s %s %s\n" mem.Membership.identity
          mem.Membership.pseudonym
          (if mem.Membership.has_invite_authority then "[authority]" else ""))
      (Membership.members m);
    (match Membership.verify_chain m with
    | Ok () ->
      Printf.printf "chain of %d piece(s) verifies\n"
        (List.length (Membership.chain m))
    | Error e -> Printf.printf "chain invalid: %s\n" e);
    if rogue then begin
      let second = List.nth (Membership.members m) 1 in
      (match
         Membership.rogue_invite m ~inviter:second.Membership.pseudonym
           ~invitee_identity:"shadow" ~pp:"p" ~sc:"s"
       with
      | Ok _ -> Printf.printf "rogue double-invite issued by %s\n" second.Membership.pseudonym
      | Error e -> failwith e);
      match Membership.detect_cheaters m with
      | [] -> print_endline "no cheater detected (bug!)"
      | cheaters ->
        List.iter
          (fun (pseudonym, identity) ->
            Printf.printf "cheater exposed: %s = %S\n" pseudonym identity)
          cheaters
    end
  in
  Cmd.v
    (Cmd.info "membership" ~doc:"Grow an anonymous membership chain")
    Term.(const run $ seed_arg $ rogue_arg $ members_arg)

(* ------------------------------------------------------------------ *)

let metrics_cmd =
  let run () =
    let cluster, glsns = Workload.Paper_example.build () in
    let frag = Cluster.fragmentation cluster in
    print_endline "store confidentiality of the paper's rows (eq 10):";
    List.iter
      (fun glsn ->
        match Cluster.record_of cluster glsn with
        | None -> ()
        | Some record ->
          let w, v, u = Confidentiality.c_store_params frag record in
          Printf.printf "  %s: w=%d v=%d u=%d C_store=%.3f\n"
            (Glsn.to_string glsn) w v u
            (Confidentiality.c_store frag record))
      glsns;
    print_endline "\nauditing confidentiality of sample criteria (eq 11):";
    List.iter
      (fun s ->
        match Query.parse s with
        | Error e -> Printf.printf "  %s: parse error %s\n" s e
        | Ok query -> (
          match Planner.plan frag (Query.normalize query) with
          | Error e -> Printf.printf "  %s: %s\n" s (Audit_error.to_string e)
          | Ok plan ->
            Printf.printf "  %-40s C_auditing=%.3f\n" s
              (Confidentiality.c_auditing plan)))
      [ {|C1 > 30|}; {|id = "U1" && C1 > 30|}; {|C1 > 30 && C2 = C3|};
        {|time >= 0 && id != tid && C1 < 50|} ]
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Confidentiality metrics (eqs 10-13)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let count_cmd =
  let query_arg =
    let doc = "Auditing criteria; only the count reaches the auditor." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let run workload seed query =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster -> (
      match
        Auditor_engine.run cluster ~delivery:Executor.Count_only
          ~auditor:Net.Node_id.Auditor (Auditor_engine.Text query)
      with
      | Error e ->
        prerr_endline (Audit_error.to_string e);
        exit 1
      | Ok audit ->
        Printf.printf "%d record(s) match (glsn's stay in-cluster)\n"
          audit.Auditor_engine.count)
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Secret counting: learn only how many records match")
    Term.(const run $ workload_arg $ seed_arg $ query_arg)

(* ------------------------------------------------------------------ *)

let batch_cmd =
  let queries_arg =
    let doc =
      "Auditing criteria to run as one session; shared predicates are \
       planned and evaluated once."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let run workload seed queries =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster -> (
      match
        Audit_session.run_strings cluster ~auditor:Net.Node_id.Auditor queries
      with
      | Error e ->
        prerr_endline (Audit_error.to_string e);
        exit 1
      | Ok summary -> Format.printf "%a@." Audit_session.pp_summary summary)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run several audit queries as one session (shared-predicate \
          planning + glsn-set caching)")
    Term.(const run $ workload_arg $ seed_arg $ queries_arg)

let correlate_cmd =
  let threshold_arg =
    let doc = "Alert threshold for cluster-wide event counts." in
    Arg.(value & opt int 10 & info [ "t"; "threshold" ] ~docv:"N" ~doc)
  in
  let run seed threshold =
    let config = { Workload.Intrusion.default_config with seed } in
    let cluster = Cluster.create ~seed Fragmentation.paper_partition in
    let _, truth = Workload.Intrusion.populate cluster config in
    let subjects =
      truth.Workload.Intrusion.attacker
      :: truth.Workload.Intrusion.background_sources
    in
    match
      Correlation.count_by_subject cluster ~auditor:Net.Node_id.Auditor
        ~subject_attr:(Attribute.defined "id")
        ~subjects:(List.sort_uniq compare subjects)
        ()
    with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok counts ->
      List.iter
        (fun (subject, count) ->
          Printf.printf "%-8s %3d %s\n" subject count
            (if count >= threshold then "<-- ALERT" else ""))
        counts
  in
  Cmd.v
    (Cmd.info "correlate"
       ~doc:"Cluster-wide event correlation over the intrusion workload")
    Term.(const run $ seed_arg $ threshold_arg)

let certify_cmd =
  let query_arg =
    let doc = "Criteria whose audit result the cluster certifies." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let dissent_arg =
    let doc = "Number of dissenting nodes." in
    Arg.(value & opt int 0 & info [ "dissent" ] ~docv:"N" ~doc)
  in
  let run workload seed query dissent =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster -> (
      match
        Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
          (Auditor_engine.Text query)
      with
      | Error e ->
        prerr_endline (Audit_error.to_string e);
        exit 1
      | Ok audit ->
        let authority = Certification.setup cluster ~k:3 () in
        let dissenting =
          List.filteri (fun i _ -> i < dissent) (Cluster.nodes cluster)
        in
        (match Certification.certify authority cluster ~dissenting audit with
        | Ok certificate ->
          Printf.printf "certified (%d approvals / %d rejections)\n"
            certificate.Certification.approvals
            certificate.Certification.rejections;
          Printf.printf "statement: %s\nverifies: %b\n"
            certificate.Certification.statement
            (Certification.verify authority certificate)
        | Error e -> Printf.printf "not certified: %s\n" e))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Majority-vote and threshold-sign an audit verdict")
    Term.(const run $ workload_arg $ seed_arg $ query_arg $ dissent_arg)

let archive_cmd =
  let run workload seed =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      let archive = Archive.create cluster in
      let epoch = Archive.seal archive in
      Format.printf "%a@." Archive.pp_epoch epoch;
      (match Archive.verify archive with
      | Ok () -> print_endline "archive verifies"
      | Error e -> Printf.printf "archive INVALID: %s\n" e)
  in
  Cmd.v
    (Cmd.info "archive" ~doc:"Seal the current log into a verified epoch")
    Term.(const run $ workload_arg $ seed_arg)

let report_cmd =
  let run workload seed =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      let report = Report.create ~title:(workload ^ " engagement") cluster in
      let auditor = Net.Node_id.Auditor in
      (match
         Auditor_engine.run cluster ~auditor
           (Auditor_engine.Text {|C1 > 30 && id != tid|})
       with
      | Ok audit -> Report.add_audit report audit
      | Error e -> prerr_endline (Audit_error.to_string e));
      (match
         Auditor_engine.run cluster ~delivery:Executor.Count_only ~auditor
           (Auditor_engine.Text {|protocl = "UDP"|})
       with
      | Ok audit ->
        Report.add_count report ~criteria:{|protocl = "UDP"|}
          audit.Auditor_engine.count
      | Error e -> prerr_endline (Audit_error.to_string e));
      Report.add_integrity_sweep report
        (Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0));
      print_string (Report.render report)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Produce a full audit report for a workload")
    Term.(const run $ workload_arg $ seed_arg)

let sum_cmd =
  let attr_arg =
    let doc = "Numeric attribute to aggregate (e.g. C2)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTR" ~doc)
  in
  let query_arg =
    let doc = "Criteria selecting the records." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let mean_arg =
    let doc = "Report the mean instead of the total." in
    Arg.(value & flag & info [ "mean" ] ~doc)
  in
  let run workload seed attr query mean =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      let attr = Attribute.of_string attr in
      if mean then (
        match
          Auditor_engine.secret_mean cluster ~auditor:Net.Node_id.Auditor
            ~attr query
        with
        | Ok m -> Printf.printf "mean: %.4f
" m
        | Error e ->
          prerr_endline (Audit_error.to_string e);
          exit 1)
      else
        match
          Auditor_engine.secret_sum cluster ~auditor:Net.Node_id.Auditor ~attr
            query
        with
        | Ok total -> Printf.printf "total: %s
" (Value.to_string total)
        | Error e ->
          prerr_endline (Audit_error.to_string e);
          exit 1
  in
  Cmd.v
    (Cmd.info "sum"
       ~doc:"Secret sum (or --mean) of an attribute over matching records")
    Term.(const run $ workload_arg $ seed_arg $ attr_arg $ query_arg $ mean_arg)

let exposure_cmd =
  let run workload seed =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      print_endline "coalition exposure (plaintext coverage by colluding nodes):";
      List.iter
        (fun (size, coverage) ->
          Printf.printf
            "  %d node(s): %3.0f%% of attribute cells, %d/%d full record(s)\n"
            size
            (100.0 *. Exposure.fraction coverage)
            coverage.Exposure.records_fully_covered
            coverage.Exposure.records_total)
        (Exposure.sweep cluster)
  in
  Cmd.v
    (Cmd.info "exposure"
       ~doc:"Coalition-exposure curve over the workload's ledger")
    Term.(const run $ workload_arg $ seed_arg)

let shell_cmd =
  let run workload seed =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      prerr_endline
        "dla shell — enter auditing criteria, one per line.\n\
         Prefix with ':count' for secret counting; ':layout' shows the\n\
         fragmentation; ':quit' exits.";
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line ->
          let line = String.trim line in
          if line = "" then loop ()
          else if line = ":quit" then ()
          else if line = ":layout" then begin
            print_endline
              (Fragmentation.to_spec (Cluster.fragmentation cluster));
            loop ()
          end
          else begin
            let count_only, query =
              if String.length line > 7 && String.sub line 0 7 = ":count " then
                (true, String.sub line 7 (String.length line - 7))
              else (false, line)
            in
            (if count_only then
               match
                 Auditor_engine.run cluster ~delivery:Executor.Count_only
                   ~auditor:Net.Node_id.Auditor (Auditor_engine.Text query)
               with
               | Ok audit ->
                 Printf.printf "%d record(s)\n%!" audit.Auditor_engine.count
               | Error e ->
                 Printf.printf "error: %s\n%!" (Audit_error.to_string e)
             else
               match
                 Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
                   (Auditor_engine.Text query)
               with
               | Ok audit ->
                 Format.printf "%a@." (Auditor_engine.pp_audit cluster) audit
               | Error e ->
                 Printf.printf "error: %s\n%!" (Audit_error.to_string e));
            loop ()
          end
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive audit-query shell over a workload")
    Term.(const run $ workload_arg $ seed_arg)

let export_cmd =
  let path_arg =
    let doc = "File to write the snapshot to ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let run workload seed path =
    match build_workload workload seed with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      let data = Snapshot.export cluster in
      if path = "-" then print_string data
      else begin
        let oc = open_out path in
        output_string oc data;
        close_out oc;
        Printf.printf "exported %d record(s) to %s\n"
          (Cluster.record_count cluster) path
      end
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the cluster's log as a logical snapshot")
    Term.(const run $ workload_arg $ seed_arg $ path_arg)

let import_cmd =
  let path_arg =
    let doc = "Snapshot file to import." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let nodes_arg =
    let doc = "Import into a round-robin layout over this many DLA nodes \
               instead of the paper partition." in
    Arg.(value & opt (some int) None & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let run seed path nodes =
    let data =
      let ic = open_in path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      data
    in
    let fragmentation =
      match nodes with
      | None -> Fragmentation.paper_partition
      | Some n ->
        Fragmentation.round_robin ~nodes:(Net.Node_id.dla_ring n)
          ~attrs:Workload.Paper_example.attributes
    in
    match Snapshot.import ~seed ~fragmentation data with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cluster ->
      Printf.printf "imported %d record(s); integrity: %s\n"
        (Cluster.record_count cluster)
        (if Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0) = []
         then "clean"
         else "VIOLATIONS")
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Rebuild a cluster from a snapshot")
    Term.(const run $ seed_arg $ path_arg $ nodes_arg)

let () =
  let info =
    Cmd.info "dla-cli" ~version:"1.0.0"
      ~doc:"Confidential auditing of distributed computing systems"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tables_cmd; audit_cmd; batch_cmd; count_cmd; correlate_cmd;
            certify_cmd; integrity_cmd; archive_cmd; membership_cmd;
            metrics_cmd; export_cmd; import_cmd; shell_cmd; exposure_cmd;
            report_cmd; sum_cmd ]))
