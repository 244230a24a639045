open Numtheory

type map = Order | Equality of Bignum.t

type blinding =
  | Monotone of Crypto.Blinding.monotone
  | Affine of Crypto.Blinding.affine

let agree net rng ~protocol holders map =
  let bytes =
    match map with Order -> 16 | Equality p -> 2 * Proto_util.bignum_wire_size p
  in
  let rec negotiate = function
    | src :: (dst :: _ as rest) ->
      Net.Network.send_exn net ~src ~dst ~label:(protocol ^ ":negotiate") ~bytes;
      negotiate rest
    | _ -> ()
  in
  negotiate holders;
  Net.Network.round ~label:protocol net;
  match map with
  | Order -> Monotone (Crypto.Blinding.generate_monotone rng ~bits:64)
  | Equality p -> Affine (Crypto.Blinding.generate_affine rng ~p)

let blind blinding y =
  match blinding with
  | Monotone m -> Crypto.Blinding.apply_monotone m y
  | Affine a -> Crypto.Blinding.apply_affine a y

let submit net ~label ~key_bytes ~ttp src rows =
  let bytes =
    List.fold_left
      (fun acc (_, _, w) -> acc + Proto_util.bignum_wire_size w + key_bytes)
      0 rows
  in
  Net.Network.send_exn net ~src ~dst:ttp ~label ~bytes;
  Proto_util.observe net ~node:ttp ~sensitivity:Net.Ledger.Blinded ~tag:label
    (Net.Ledger.Batch (Bignum.to_string, List.map (fun (_, _, w) -> w) rows))

let join holds compare_key left right =
  let rec merge acc left right =
    match (left, right) with
    | [], _ | _, [] -> acc
    | (kl, class_l, wl) :: left', (kr, class_r, wr) :: right' ->
      let c = compare_key kl kr in
      if c < 0 then merge acc left' right
      else if c > 0 then merge acc left right'
      else if String.equal class_l class_r && holds (Bignum.compare wl wr) then
        merge (kl :: acc) left' right'
      else merge acc left' right'
  in
  merge [] left right

let pair net rng ~protocol ~ttp map ~left:(lnode, lval) ~right:(rnode, rval) =
  let blinding = agree net rng ~protocol [ lnode; rnode ] map in
  let wl = blind blinding lval and wr = blind blinding rval in
  List.iter
    (fun (src, w) ->
      submit net ~label:(protocol ^ ":submit") ~key_bytes:0 ~ttp src
        [ ((), "", w) ])
    [ (lnode, wl); (rnode, wr) ];
  Net.Network.round ~label:protocol net;
  List.iter
    (fun dst ->
      Net.Network.send_exn net ~src:ttp ~dst ~label:(protocol ^ ":verdict")
        ~bytes:1)
    [ lnode; rnode ];
  Net.Network.round ~label:protocol net;
  Bignum.compare wl wr
