open Numtheory

let via_ttp ~net ~rng ~p ~ttp ~left:(lnode, lval) ~right:(rnode, rval) =
  let outside v = Bignum.sign v < 0 || Bignum.compare v p >= 0 in
  if outside lval || outside rval then
    invalid_arg "Equality.via_ttp: value outside [0, p)";
  Proto_util.span net "smc.equality" (fun () ->
      Blind_compare.pair net rng ~protocol:"equality" ~ttp
        (Blind_compare.Equality p) ~left:(lnode, lval) ~right:(rnode, rval)
      = 0)

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
  let table = List.mapi (fun i v -> (v, i)) (Proto_util.shuffle rng domain) in
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
  (* Then =ₛ on the indices, its own map agreement included, modulo the
     prime 2^61 - 1: the affine map is a bijection only modulo a prime
     above every index. *)
  Blind_compare.pair net rng ~protocol:"equality" ~ttp
    (Blind_compare.Equality (Bignum.of_int 0x1FFF_FFFF_FFFF_FFFF))
    ~left:(lnode, yl) ~right:(rnode, yr)
  = 0
