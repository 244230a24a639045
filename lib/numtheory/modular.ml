let normalize a ~m =
  if Bignum.sign m <= 0 then invalid_arg "Modular: modulus must be positive"
  else Bignum.erem a m

let add a b ~m = normalize (Bignum.add a b) ~m
let sub a b ~m = normalize (Bignum.sub a b) ~m
let mul a b ~m = normalize (Bignum.mul a b) ~m

let pow_classic b e ~m =
  if Bignum.sign e < 0 then invalid_arg "Modular.pow: negative exponent"
  else if Bignum.equal m Bignum.one then Bignum.zero
  else begin
    (* Left-to-right square-and-multiply over the bits of [e]. *)
    let b = normalize b ~m in
    let nbits = Bignum.num_bits e in
    let acc = ref Bignum.one in
    for i = nbits - 1 downto 0 do
      acc := mul !acc !acc ~m;
      if Bignum.test_bit e i then acc := mul !acc b ~m
    done;
    !acc
  end

(* The moduli every Montgomery path serves: odd (REDC needs m
   invertible mod 2^26), at least 64 bits (below that the one-time
   domain setup outweighs the division savings) and no wider than the
   kernel's column-sum bound. *)
let montgomery_shape m =
  Bignum.is_odd m
  &&
  let bits = Bignum.num_bits m in
  bits >= 64 && bits <= Montgomery.max_modulus_bits

(* Small LRU cache of Montgomery contexts keyed by modulus.  Protocol
   runs interleave exponentiations under several moduli at once (each
   node's Pohlig–Hellman prime, a Paillier n and n², an accumulator
   n, ...), and rebuilding R² mod m on every switch costs more than the
   exponentiation it serves.  Move-to-front list: the working set is a
   handful of moduli, so linear scans are cheaper than hashing bignums. *)
let default_mont_cache_capacity = 8
let capacity = ref default_mont_cache_capacity
let mont_cache_capacity () = !capacity
let mont_cache : Montgomery.ctx list ref = ref []

(* Fixed-base window tables ride in their own LRU, keyed by
   (modulus, base): several long-lived bases can share one modulus
   (accumulator seed and witnesses, threshold-RSA digests), and a
   table is much heavier than a ctx, so the two caches age
   independently under the same capacity knob. *)
let base_cache : Montgomery.base_table list ref = ref []

let reset_mont_cache () =
  mont_cache := [];
  base_cache := []

let rec cache_take m acc = function
  | [] -> None
  | ctx :: rest ->
    if Bignum.equal (Montgomery.modulus ctx) m then
      Some (ctx, List.rev_append acc rest)
    else cache_take m (ctx :: acc) rest

let rec cache_trim n = function
  | [] -> []
  | _ :: _ when n = 0 -> []
  | ctx :: rest -> ctx :: cache_trim (n - 1) rest

let set_mont_cache_capacity n =
  let n = max 1 n in
  capacity := n;
  mont_cache := cache_trim n !mont_cache;
  base_cache := cache_trim n !base_cache

let mont_ctx m =
  match cache_take m [] !mont_cache with
  | Some (ctx, rest) ->
    Obs.Metrics.incr "crypto.mont.cache_hit";
    mont_cache := ctx :: rest;
    ctx
  | None ->
    Obs.Metrics.incr "crypto.mont.cache_miss";
    Obs.Metrics.incr "crypto.mont.ctx_create";
    let ctx = Montgomery.create m in
    mont_cache := ctx :: cache_trim (!capacity - 1) !mont_cache;
    ctx

let mont_ctx_opt m = if montgomery_shape m then Some (mont_ctx m) else None

let rec base_cache_take ~base ~m acc = function
  | [] -> None
  | t :: rest ->
    if
      Bignum.equal (Montgomery.table_base t) base
      && Bignum.equal (Montgomery.table_modulus t) m
    then Some (t, List.rev_append acc rest)
    else base_cache_take ~base ~m (t :: acc) rest

let base_table ~base ~m =
  let base = normalize base ~m in
  match base_cache_take ~base ~m [] !base_cache with
  | Some (t, rest) ->
    Obs.Metrics.incr "crypto.mont.fixed_base_hit";
    base_cache := t :: rest;
    t
  | None ->
    Obs.Metrics.incr "crypto.mont.fixed_base_miss";
    Obs.Metrics.incr "crypto.mont.fixed_base_table_create";
    let t = Montgomery.base_table (mont_ctx m) base in
    base_cache := t :: cache_trim (!capacity - 1) !base_cache;
    t

(* Montgomery pays off once the per-multiplication division savings
   outweigh the one-time domain setup. *)
let use_montgomery ~m ~e = montgomery_shape m && Bignum.num_bits e >= 16

let pow b e ~m =
  if Bignum.sign e < 0 then invalid_arg "Modular.pow: negative exponent"
  else if Bignum.equal m Bignum.one then Bignum.zero
  else if use_montgomery ~m ~e then begin
    Obs.Metrics.incr "crypto.mont.pow";
    Montgomery.pow (mont_ctx m) b e
  end
  else pow_classic b e ~m

(* Below this many elements per chunk, farming a batch to worker
   domains costs more in context setup and joins than it saves. *)
let pool_min_chunk = 16

let pow_many bs e ~m =
  match bs with
  | [ b ] ->
    (* Single-element batch: same dispatch as [pow], no separate plan
       construction (and no 16-entry table on the tiny path). *)
    if Bignum.sign e < 0 then
      invalid_arg "Modular.pow_many: negative exponent"
    else [ pow b e ~m ]
  | _ ->
    if Bignum.sign e < 0 then invalid_arg "Modular.pow_many: negative exponent"
    else if Bignum.equal m Bignum.one then
      List.map (fun _ -> Bignum.zero) bs
    else if use_montgomery ~m ~e then begin
      Obs.Metrics.incr ~by:(List.length bs) "crypto.mont.pow";
      let pool = Domain_pool.current () in
      if Domain_pool.domains pool > 1 && List.length bs >= 2 * pool_min_chunk
      then begin
        (* Farmed path.  The submitter still touches the shared LRU
           exactly once, so crypto.mont.cache_* counters match the
           inline path; each chunk then builds a private context —
           the cached one's scratch buffers are not shareable across
           domains — and private contexts over the same modulus
           produce bit-identical canonical results. *)
        ignore (mont_ctx m);
        Domain_pool.map_list pool ~min_chunk:pool_min_chunk
          (fun chunk ->
            let ctx = Montgomery.create m in
            Montgomery.pow_many (Montgomery.powers ctx e) chunk)
          bs
      end
      else Montgomery.pow_many (Montgomery.powers (mont_ctx m) e) bs
    end
    else List.map (fun b -> pow_classic b e ~m) bs

(* Fixed-base exponentiation: the window table only pays for itself
   when the base is long-lived, so gate on the Montgomery modulus shape
   plus a width cap — a table for a w-window exponent is 15·w residues,
   and past ~16k exponent bits the build cost and footprint outweigh
   any plausible reuse. *)
let fixed_base_max_bits = 16384

let pow_base ~base e ~m =
  if Bignum.sign e < 0 then invalid_arg "Modular.pow_base: negative exponent"
  else if Bignum.equal m Bignum.one then Bignum.zero
  else if montgomery_shape m && Bignum.num_bits e <= fixed_base_max_bits then
    Montgomery.pow_base (base_table ~base ~m) e
  else pow base e ~m

let multi_pow pairs ~m =
  List.iter
    (fun (_, e) ->
      if Bignum.sign e < 0 then
        invalid_arg "Modular.multi_pow: negative exponent")
    pairs;
  if Bignum.equal m Bignum.one then Bignum.zero
  else begin
    let widest =
      List.fold_left (fun acc (_, e) -> max acc (Bignum.num_bits e)) 0 pairs
    in
    if montgomery_shape m && widest >= 16 then begin
      Obs.Metrics.incr "crypto.mont.multi_pow";
      Montgomery.multi_pow (mont_ctx m) pairs
    end
    else
      (* Naive fallback for non-Montgomery moduli (or all-tiny
         exponents): the plain product of independent powers. *)
      List.fold_left
        (fun acc (b, e) -> mul acc (pow b e ~m) ~m)
        (normalize Bignum.one ~m) pairs
  end

let rec gcd a b =
  if Bignum.is_zero b then Bignum.abs a else gcd b (Bignum.rem a b)

let extended_gcd a b =
  (* Iterative extended Euclid; invariant r_i = a*x_i + b*y_i. *)
  let rec go r0 x0 y0 r1 x1 y1 =
    if Bignum.is_zero r1 then (r0, x0, y0)
    else begin
      let q, r2 = Bignum.div_rem r0 r1 in
      go r1 x1 y1 r2
        (Bignum.sub x0 (Bignum.mul q x1))
        (Bignum.sub y0 (Bignum.mul q y1))
    end
  in
  let g, x, y = go a Bignum.one Bignum.zero b Bignum.zero Bignum.one in
  if Bignum.sign g < 0 then (Bignum.neg g, Bignum.neg x, Bignum.neg y)
  else (g, x, y)

let inverse a ~m =
  let g, x, _ = extended_gcd (normalize a ~m) m in
  if Bignum.equal g Bignum.one then Some (normalize x ~m) else None

let inverse_exn a ~m =
  match inverse a ~m with
  | Some v -> v
  | None -> invalid_arg "Modular.inverse_exn: element is not invertible"

let crt congruences =
  match congruences with
  | [] -> invalid_arg "Modular.crt: empty system"
  | (r0, m0) :: rest ->
    let combine (r1, m1) (r2, m2) =
      (* x = r1 + m1 * k with m1*k = r2 - r1 (mod m2). *)
      let g, p, _ = extended_gcd m1 m2 in
      if not (Bignum.equal g Bignum.one) then
        invalid_arg "Modular.crt: moduli are not coprime"
      else begin
        let m = Bignum.mul m1 m2 in
        let diff = Bignum.sub r2 r1 in
        let k = normalize (Bignum.mul diff p) ~m:m2 in
        (normalize (Bignum.add r1 (Bignum.mul m1 k)) ~m, m)
      end
    in
    List.fold_left combine (normalize r0 ~m:m0, m0) rest

let jacobi a n =
  if Bignum.sign n <= 0 || Bignum.is_even n then
    invalid_arg "Modular.jacobi: n must be odd and positive"
  else begin
    let rec go a n acc =
      let a = Bignum.erem a n in
      if Bignum.is_zero a then if Bignum.equal n Bignum.one then acc else 0
      else begin
        (* Pull out factors of two, flipping sign when n = ±3 mod 8. *)
        let rec twos a acc =
          if Bignum.is_even a then begin
            let n_mod8 = Bignum.to_int (Bignum.logand n (Bignum.of_int 7)) in
            let acc = if n_mod8 = 3 || n_mod8 = 5 then -acc else acc in
            twos (Bignum.shift_right a 1) acc
          end
          else (a, acc)
        in
        let a, acc = twos a acc in
        if Bignum.equal a Bignum.one then acc
        else begin
          (* Quadratic reciprocity flip. *)
          let a_mod4 = Bignum.to_int (Bignum.logand a (Bignum.of_int 3)) in
          let n_mod4 = Bignum.to_int (Bignum.logand n (Bignum.of_int 3)) in
          let acc = if a_mod4 = 3 && n_mod4 = 3 then -acc else acc in
          go n a acc
        end
      end
    in
    go a n 1
  end
