open Numtheory

let record_blinded net node value =
  Proto_util.observe net ~node ~sensitivity:Net.Ledger.Blinded
    ~tag:"equality:blinded" (Net.Ledger.Text (Bignum.to_string value))

let via_ttp ~net ~rng ~p ~ttp ~left:(lnode, lval) ~right:(rnode, rval) =
  let check v =
    if Bignum.sign v < 0 || Bignum.compare v p >= 0 then
      invalid_arg "Equality.via_ttp: value outside [0, p)"
  in
  check lval;
  check rval;
  Proto_util.span net "smc.equality" (fun () ->
      let wl, wr =
        Proto_util.span net "smc.equality.transform" (fun () ->
            (* The two holders agree on the secret map; one negotiation
               message. *)
            let blind = Crypto.Blinding.generate_affine rng ~p in
            Net.Network.send_exn net ~src:lnode ~dst:rnode
              ~label:"equality:negotiate"
              ~bytes:(2 * Proto_util.bignum_wire_size p);
            Net.Network.round ~label:"equality" net;
            (* Both values blind under the one agreed map in a single
               batch pass. *)
            match Crypto.Blinding.apply_affine_many blind [ lval; rval ] with
            | [ wl; wr ] -> (wl, wr)
            | _ -> assert false)
      in
      Proto_util.span net "smc.equality.blind-ttp" (fun () ->
          Net.Network.send_exn net ~src:lnode ~dst:ttp ~label:"equality:submit"
            ~bytes:(Proto_util.bignum_wire_size wl);
          Net.Network.send_exn net ~src:rnode ~dst:ttp ~label:"equality:submit"
            ~bytes:(Proto_util.bignum_wire_size wr);
          record_blinded net ttp wl;
          record_blinded net ttp wr;
          Net.Network.round ~label:"equality" net;
          let verdict = Bignum.equal wl wr in
          (* TTP returns the one-bit verdict to both holders. *)
          Net.Network.send_exn net ~src:ttp ~dst:lnode ~label:"equality:verdict"
            ~bytes:1;
          Net.Network.send_exn net ~src:ttp ~dst:rnode ~label:"equality:verdict"
            ~bytes:1;
          Net.Network.round ~label:"equality" net;
          verdict))

let via_intersection ~net ~scheme ~left:(lnode, lval) ~right:(rnode, rval) =
  let result =
    Set_intersection.run ~net ~scheme ~receiver:lnode
      [ { Set_intersection.node = lnode; set = [ lval ] };
        { Set_intersection.node = rnode; set = [ rval ] }
      ]
  in
  result.Set_intersection.intersection <> []

let via_mapping_table ~net ~rng ~ttp ~domain ~left:(lnode, lval)
    ~right:(rnode, rval) =
  (* The agreed random mapping table: a secret shuffle of the domain,
     assigning each value a fresh index in the number space. *)
  let table =
    List.mapi
      (fun index value -> (value, index))
      (Proto_util.shuffle rng domain)
  in
  let map_value v =
    match List.assoc_opt v table with
    | Some index -> Bignum.of_int index
    | None -> invalid_arg "Equality.via_mapping_table: value outside domain"
  in
  let yl = map_value lval and yr = map_value rval in
  (* Table agreement costs one message carrying the shuffled domain. *)
  let table_bytes =
    List.fold_left (fun acc v -> acc + String.length v + 4) 0 domain
  in
  Net.Network.send_exn net ~src:lnode ~dst:rnode ~label:"equality:table"
    ~bytes:table_bytes;
  Net.Network.round ~label:"equality" net;
  (* From here it is the affine-blind TTP comparison on the mapped
     numbers; the TTP sees indices of a secret permutation. *)
  let p = Bignum.of_int (max 2 (2 * List.length domain)) in
  let p = if Bignum.is_even p then Bignum.succ p else p in
  let blind = Crypto.Blinding.generate_affine rng ~p in
  let wl, wr =
    match Crypto.Blinding.apply_affine_many blind [ yl; yr ] with
    | [ wl; wr ] -> (wl, wr)
    | _ -> assert false
  in
  List.iter
    (fun (src, w) ->
      Net.Network.send_exn net ~src ~dst:ttp ~label:"equality:submit"
        ~bytes:(Proto_util.bignum_wire_size w);
      record_blinded net ttp w)
    [ (lnode, wl); (rnode, wr) ];
  Net.Network.round ~label:"equality" net;
  let verdict = Bignum.equal wl wr in
  Net.Network.send_exn net ~src:ttp ~dst:lnode ~label:"equality:verdict"
    ~bytes:1;
  Net.Network.send_exn net ~src:ttp ~dst:rnode ~label:"equality:verdict"
    ~bytes:1;
  Net.Network.round ~label:"equality" net;
  verdict
