let small_primes =
  (* Sieve of Eratosthenes below 1000, computed once at load. *)
  let limit = 1000 in
  let composite = Array.make (limit + 1) false in
  let rec mark i =
    if i * i <= limit then begin
      if not composite.(i) then begin
        let j = ref (i * i) in
        while !j <= limit do
          composite.(!j) <- true;
          j := !j + i
        done
      end;
      mark (i + 1)
    end
  in
  mark 2;
  let acc = ref [] in
  for i = limit downto 2 do
    if not composite.(i) then acc := i :: !acc
  done;
  !acc

let divisible_by_small_prime n =
  List.exists
    (fun p ->
      let bp = Bignum.of_int p in
      Bignum.compare n bp > 0 && Bignum.is_zero (Bignum.rem n bp))
    small_primes

(* One Miller-Rabin round: n - 1 = d * 2^s with d odd; witness a proves
   compositeness unless a^d = 1 or a^(d*2^r) = n-1 for some r < s. *)
let miller_rabin_round n d s a =
  let x = Modular.pow a d ~m:n in
  let n_minus_1 = Bignum.pred n in
  if Bignum.equal x Bignum.one || Bignum.equal x n_minus_1 then true
  else begin
    let rec squares x r =
      if r >= s then false
      else begin
        let x = Modular.mul x x ~m:n in
        if Bignum.equal x n_minus_1 then true else squares x (r + 1)
      end
    in
    squares x 1
  end

(* Witnesses per test: a composite survives with probability below 4^-24. *)
let miller_rabin_rounds = 24

let is_probable_prime rng n =
  if Bignum.sign n <= 0 then false
  else begin
    match Bignum.to_int_opt n with
    | Some v when v < 2 -> false
    | Some v when v < 4 -> true (* 2, 3 *)
    | _ ->
      if Bignum.is_even n then false
      else if List.exists (fun p -> Bignum.equal n (Bignum.of_int p)) small_primes
      then true
      else if divisible_by_small_prime n then false
      else begin
        let n_minus_1 = Bignum.pred n in
        let rec split d s =
          if Bignum.is_even d then split (Bignum.shift_right d 1) (s + 1)
          else (d, s)
        in
        let d, s = split n_minus_1 0 in
        let rec rounds_left k =
          if k = 0 then true
          else begin
            let a = Prng.bignum_range rng Bignum.two n_minus_1 in
            miller_rabin_round n d s a && rounds_left (k - 1)
          end
        in
        rounds_left miller_rabin_rounds
      end
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Primes.random_prime: need at least 2 bits"
  else begin
    let rec go () =
      let candidate = Prng.bits rng bits in
      (* Force the top bit (exact width) and the bottom bit (odd). *)
      let top = Bignum.shift_left Bignum.one (bits - 1) in
      let candidate = Bignum.logor (Bignum.logor candidate top) Bignum.one in
      if is_probable_prime rng candidate then candidate else go ()
    in
    go ()
  end

let random_safe_prime rng ~bits =
  if bits < 4 then invalid_arg "Primes.random_safe_prime: need at least 4 bits"
  else begin
    let rec go () =
      let q = random_prime rng ~bits:(bits - 1) in
      let p = Bignum.succ (Bignum.shift_left q 1) in
      if Bignum.num_bits p = bits && is_probable_prime rng p then p
      else go ()
    in
    go ()
  end

let next_prime rng n =
  let start =
    if Bignum.compare n Bignum.two < 0 then Bignum.two
    else begin
      let n = Bignum.succ n in
      if Bignum.is_even n then Bignum.succ n else n
    end
  in
  if Bignum.equal start Bignum.two then Bignum.two
  else begin
    let rec go candidate =
      if is_probable_prime rng candidate then candidate
      else go (Bignum.add candidate Bignum.two)
    in
    go start
  end

let rsa_modulus rng ~bits =
  if bits < 8 then invalid_arg "Primes.rsa_modulus: need at least 8 bits"
  else begin
    let half = bits / 2 in
    let p = random_prime rng ~bits:half in
    let rec distinct () =
      let q = random_prime rng ~bits:half in
      if Bignum.equal p q then distinct () else q
    in
    let q = distinct () in
    (Bignum.mul p q, p, q)
  end
