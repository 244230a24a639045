open Numtheory

let equality_via_ttp ~net ~ttp ~left:(lnode, lval) ~right:(rnode, rval) =
  Smc.Proto_util.span net "spec.leaky-equality" (fun () ->
      Net.Network.send_exn net ~src:lnode ~dst:ttp ~label:"leaky:submit"
        ~bytes:(Smc.Proto_util.bignum_wire_size lval);
      (* Honest labeling of a dishonest protocol: the TTP really does
         see the raw value. *)
      Smc.Proto_util.observe net ~node:ttp ~sensitivity:Net.Ledger.Plaintext
        ~tag:"leaky:submit" (Net.Ledger.Text (Bignum.to_string lval));
      Net.Network.send_exn net ~src:rnode ~dst:ttp ~label:"leaky:submit"
        ~bytes:(Smc.Proto_util.bignum_wire_size rval);
      (* Mislabeled: the value traveled unblinded but is recorded as if
         it had been transformed — the verbatim-secret rule must catch
         this one. *)
      Smc.Proto_util.observe net ~node:ttp ~sensitivity:Net.Ledger.Blinded
        ~tag:"leaky:submit" (Net.Ledger.Text (Bignum.to_string rval));
      Net.Network.round ~label:"equality" net;
      let verdict = Bignum.equal lval rval in
      Net.Network.send_exn net ~src:ttp ~dst:lnode ~label:"leaky:verdict"
        ~bytes:1;
      Net.Network.send_exn net ~src:ttp ~dst:rnode ~label:"leaky:verdict"
        ~bytes:1;
      Net.Network.round ~label:"equality" net;
      verdict)

let checkpoint_with_glsn ~net ~publisher ~verifier ~digest ~glsn =
  Smc.Proto_util.span net "spec.leaky-checkpoint" (fun () ->
      Net.Network.send_exn net ~src:publisher ~dst:verifier
        ~label:"leaky:checkpoint" ~bytes:(String.length digest + 16);
      (* A "helpful" publisher annotating the head with which record
         triggered it: the value is no longer a bare 64-hex digest, so
         the ckpt: event class must reject it. *)
      Smc.Proto_util.observe net ~node:verifier
        ~sensitivity:Net.Ledger.Metadata ~tag:"ckpt:publish"
        (Net.Ledger.Text (Printf.sprintf "%s|glsn=%s" digest glsn));
      Net.Network.round ~label:"continuous" net)

let audit_leaking_column cluster ?delivery ~auditor ~attr request =
  let net = Dla.Cluster.net cluster in
  let ttp = Net.Node_id.Ttp "query" in
  (match Dla.Fragmentation.home_of (Dla.Cluster.fragmentation cluster) attr with
  | None -> invalid_arg "Leaky_fixture.audit_leaking_column: attribute unhomed"
  | Some home ->
    Smc.Proto_util.span net "spec.leaky-audit" (fun () ->
        let column =
          List.rev
            (Dla.Storage.fold_column
               (Dla.Cluster.store_of cluster home)
               attr
               (fun acc _ v -> v :: acc)
               [])
        in
        Net.Network.send_exn net ~src:home ~dst:ttp ~label:"leaky:column"
          ~bytes:(16 * List.length column);
        (* The home skips the blinding step and the TTP records what it
           really got: every cell of the column in the clear. *)
        Smc.Proto_util.observe net ~node:ttp ~sensitivity:Net.Ledger.Plaintext
          ~tag:"leaky:column"
          (Net.Ledger.Batch
             ( (fun v -> Dla.Log_record.cell_to_string (attr, v)),
               column ));
        Net.Network.round ~label:"query" net));
  Dla.Auditor_engine.run cluster ~ttp ?delivery ~auditor request
