(* Word-level Montgomery multiplication by product (column) scanning.
   Operands are int arrays of k 26-bit limbs.  The product a·b and the
   reduction q·m are summed column by column: column i adds every
   a.(j)·b.(i-j) and q.(j)·m.(i-j) (each below 2^52) into one native
   int and carries once.  A multiplication allocates nothing: the only
   working state is the context's k q-digits.

   Aliasing.  Column i >= k writes dst.(i-k) and reads operand limbs at
   indices >= i-k+1 only, so each output limb is written after the last
   read of that index: dst may be a, b or both (an in-place square).
   Exponentiation loops therefore multiply their accumulator in place.

   Unchecked access.  The kernel reads and writes limbs with
   [Array.unsafe_get]/[unsafe_set] at indices in [0, k): a, b, dst,
   the modulus and the q-digits all hold exactly k limbs.  Every array
   the kernel sees is built in this file at the context's width; none
   is taken from a caller. *)

let limb_bits = Bignum.limb_bits
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

(* Width bound.  A column adds at most 2k limb products, each at most
   (2^26-1)^2, to the carry from the column below it.  If that carry is
   at most 2k·(2^26-1), the column's sum is at most
   2k·(2^26-1)^2 + 2k·(2^26-1) = k·(2^26-1)·2^27, and its own carry is
   again at most 2k·(2^26-1); the first column starts from 0.  So every
   column sum fits a native int (max_int = 2^62-1) iff
   k·(2^26-1)·2^27 <= 2^62-1, i.e. k <= 512 (13,312 bits):
   512·(2^26-1)·2^27 = 2^62 - 2^36. *)
let max_limbs = max_int / ((limb_base - 1) lsl (limb_bits + 1))
let max_modulus_bits = max_limbs * limb_bits

type ctx = {
  m : Bignum.t;
  m_arr : int array;  (* k limbs of the modulus *)
  k : int;
  m0_prime : int;  (* -m^{-1} mod 2^26 *)
  r2 : int array;  (* R^2 mod m, for domain entry *)
  one_mont : int array;  (* R mod m *)
  one_plain : int array;  (* plain 1, for domain exit *)
  q : int array;  (* k reduction digits: the kernel's only scratch *)
}

(* Inverse of an odd limb modulo 2^26 by Hensel lifting on native ints. *)
let inv_limb_mod_base m0 =
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * (2 - (m0 * !x)) land limb_mask
  done;
  !x land limb_mask

let create m =
  if Bignum.compare m (Bignum.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus too small";
  if Bignum.is_even m then invalid_arg "Montgomery.create: modulus must be odd";
  if Bignum.num_bits m > max_modulus_bits then
    invalid_arg "Montgomery.create: modulus too wide";
  let m_arr = Bignum.to_limbs m in
  let k = Array.length m_arr in
  let r_bits = k * limb_bits in
  let pad limbs =
    let out = Array.make k 0 in
    Array.blit limbs 0 out 0 (Array.length limbs);
    out
  in
  let r2 =
    pad (Bignum.to_limbs (Bignum.erem (Bignum.shift_left Bignum.one (2 * r_bits)) m))
  in
  let one_mont =
    pad (Bignum.to_limbs (Bignum.erem (Bignum.shift_left Bignum.one r_bits) m))
  in
  let one_plain = Array.make k 0 in
  one_plain.(0) <- 1;
  {
    m;
    m_arr;
    k;
    m0_prime = (limb_base - inv_limb_mod_base m_arr.(0)) land limb_mask;
    r2;
    one_mont;
    one_plain;
    q = Array.make k 0;
  }

let modulus ctx = ctx.m

(* Unchecked limb access, typed to [int array] so that each access
   compiles to a plain load or store (no float-array test, no write
   barrier).  Used by [mont_mul] only; see the header. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i (v : int) = Array.unsafe_set a i v

(* dst <- REDC(a * b) = a·b·R^-1 mod m, canonical; a, b < m.  Columns
   0..k-1 each end by choosing the digit q.(i) that zeroes the column;
   columns k..2k-1 emit the result limbs.  See the header for the
   aliasing contract and the width bound that keeps each column sum in
   one native int. *)
let mont_mul ctx dst a b =
  let k = ctx.k and m = ctx.m_arr and q = ctx.q and m0' = ctx.m0_prime in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = ref !carry in
    for j = 0 to i - 1 do
      s := !s + (get a j * get b (i - j)) + (get q j * get m (i - j))
    done;
    let s = !s + (get a i * get b 0) in
    let qi = s land limb_mask * m0' land limb_mask in
    set q i qi;
    carry := (s + (qi * get m 0)) lsr limb_bits
  done;
  for i = k to (2 * k) - 1 do
    let s = ref !carry in
    for j = i - k + 1 to k - 1 do
      s := !s + (get a j * get b (i - j)) + (get q j * get m (i - j))
    done;
    set dst (i - k) (!s land limb_mask);
    carry := !s lsr limb_bits
  done;
  (* The result is dst + carry·R < 2m, so carry is 0 or 1 and one
     conditional subtraction makes it canonical. *)
  let ge =
    !carry > 0
    ||
    let j = ref (k - 1) in
    while !j > 0 && get dst !j = get m !j do
      decr j
    done;
    get dst !j >= get m !j
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let x = get dst j - get m j - !borrow in
      set dst j (x land limb_mask);
      borrow := -(x asr limb_bits)
    done
  end

let to_array ctx x =
  let x = Bignum.erem x ctx.m in
  let limbs = Bignum.to_limbs x in
  let out = Array.make ctx.k 0 in
  Array.blit limbs 0 out 0 (Array.length limbs);
  out

(* Domain entry into a fresh array, x·R mod m: the long-lived operands
   of the base tables and [multi_pow]. *)
let to_mont ctx x =
  let out = to_array ctx x in
  mont_mul ctx out out ctx.r2;
  out

(* Fixed 4-bit-window exponentiation: precompute b^0..b^15 in the
   Montgomery domain, then per window do 4 squarings and at most one
   table multiplication — ~25% fewer multiplications than binary
   square-and-multiply on random exponents. *)
let window_bits = 4

(* A fixed-exponent exponentiation plan.  The exponent's window digits
   are recoded exactly once, and every working array a single [pow]
   needs (16-entry table, accumulator, base buffer) is preallocated
   here and reused across the whole batch — [pow_with] performs no
   allocation beyond the domain entry and the result bignum. *)
type powers = {
  p_ctx : ctx;
  e : Bignum.t;
  nbits : int;
  digits : int array;  (* digits.(w) = bits [w*4 .. w*4+3] of e; empty on the tiny path *)
  table : int array array;
  acc : int array;
  b_mont : int array;
}

let powers ctx e =
  if Bignum.sign e < 0 then invalid_arg "Montgomery.powers: negative exponent";
  let nbits = Bignum.num_bits e in
  let digits =
    if nbits <= 2 * window_bits then [||]
    else begin
      let nwindows = (nbits + window_bits - 1) / window_bits in
      Array.init nwindows (fun w ->
          let digit = ref 0 in
          for bit = window_bits - 1 downto 0 do
            let i = (w * window_bits) + bit in
            digit := (!digit lsl 1) lor (if Bignum.test_bit e i then 1 else 0)
          done;
          !digit)
    end
  in
  {
    p_ctx = ctx;
    e;
    nbits;
    digits;
    (* The tiny path never consults the table; skip the 16 k-limb
       allocations so a plan built for one small exponent stays cheap. *)
    table =
      (if nbits <= 2 * window_bits then [||]
       else Array.init 16 (fun _ -> Array.make ctx.k 0));
    acc = Array.make ctx.k 0;
    b_mont = Array.make ctx.k 0;
  }

let pow_with plan b =
  let ctx = plan.p_ctx in
  let k = ctx.k in
  (* enter the domain: reduce into the reused base buffer, no fresh
     padding array per element. *)
  let limbs = Bignum.to_limbs (Bignum.erem b ctx.m) in
  let b_mont = plan.b_mont in
  Array.fill b_mont 0 k 0;
  Array.blit limbs 0 b_mont 0 (Array.length limbs);
  mont_mul ctx b_mont b_mont ctx.r2;
  let acc = plan.acc in
  Array.blit ctx.one_mont 0 acc 0 k;
  if plan.nbits <= 2 * window_bits then
    (* Tiny exponent: plain binary, no table amortization possible. *)
    for i = plan.nbits - 1 downto 0 do
      mont_mul ctx acc acc acc;
      if Bignum.test_bit plan.e i then mont_mul ctx acc acc b_mont
    done
  else begin
    let table = plan.table in
    Array.blit ctx.one_mont 0 table.(0) 0 k;
    Array.blit b_mont 0 table.(1) 0 k;
    for i = 2 to 15 do
      mont_mul ctx table.(i) table.(i - 1) b_mont
    done;
    let nwindows = Array.length plan.digits in
    for w = nwindows - 1 downto 0 do
      if w < nwindows - 1 then
        for _ = 1 to window_bits do
          mont_mul ctx acc acc acc
        done;
      let digit = plan.digits.(w) in
      if digit <> 0 then mont_mul ctx acc acc table.(digit)
    done
  end;
  (* leave the Montgomery domain: multiply by 1. *)
  mont_mul ctx acc acc ctx.one_plain;
  Bignum.of_limbs acc

let pow_many plan bs = List.map (pow_with plan) bs

(* ---- Fixed-base windowed precomputation --------------------------
   For a long-lived base [b] (a Pohlig–Hellman generator, the
   accumulator seed x0, an RSA digest) precompute
   [rows.(j).(d-1) = b^(d·16^j)·R] for window digits d = 1..15.  An
   exponentiation is then one table multiplication per non-zero 4-bit
   window and NO squarings at all — the squarings were burned into the
   table once.  Rows grow on demand as wider exponents arrive; the
   seed of row j+1 is [b^(16^(j+1)) = rows.(j).(14) · seed_j]. *)

type base_table = {
  bt_ctx : ctx;
  bt_base : Bignum.t;  (* canonical base, the LRU cache key *)
  mutable rows : int array array array;
  mutable nrows : int;
  mutable next_seed : int array;  (* b^(16^nrows)·R *)
}

let base_table ctx b =
  let b = Bignum.erem b ctx.m in
  { bt_ctx = ctx; bt_base = b; rows = [||]; nrows = 0;
    next_seed = to_mont ctx b }

let table_modulus t = t.bt_ctx.m
let table_base t = t.bt_base
let table_windows t = t.nrows

let ensure_rows t n =
  let ctx = t.bt_ctx in
  let k = ctx.k in
  while t.nrows < n do
    let seed = t.next_seed in
    let row = Array.init 15 (fun _ -> Array.make k 0) in
    Array.blit seed 0 row.(0) 0 k;
    for d = 1 to 14 do
      mont_mul ctx row.(d) row.(d - 1) seed
    done;
    let nxt = Array.make k 0 in
    mont_mul ctx nxt row.(14) seed;
    if t.nrows = Array.length t.rows then begin
      let grown = Array.make (max 8 (2 * Array.length t.rows)) [||] in
      Array.blit t.rows 0 grown 0 t.nrows;
      t.rows <- grown
    end;
    t.rows.(t.nrows) <- row;
    t.nrows <- t.nrows + 1;
    t.next_seed <- nxt
  done

let pow_base t e =
  if Bignum.sign e < 0 then invalid_arg "Montgomery.pow_base: negative exponent";
  let ctx = t.bt_ctx in
  let nbits = Bignum.num_bits e in
  let nwindows = (nbits + window_bits - 1) / window_bits in
  ensure_rows t nwindows;
  let acc = Array.copy ctx.one_mont in
  for w = 0 to nwindows - 1 do
    let digit = ref 0 in
    for bit = window_bits - 1 downto 0 do
      let i = (w * window_bits) + bit in
      digit := (!digit lsl 1) lor (if Bignum.test_bit e i then 1 else 0)
    done;
    if !digit <> 0 then mont_mul ctx acc acc t.rows.(w).(!digit - 1)
  done;
  mont_mul ctx acc acc ctx.one_plain;
  Bignum.of_limbs acc

(* ---- Simultaneous multi-exponentiation (Shamir's trick) ----------
   Joint windowing over several exponents shares the squaring chain:
   one squaring per bit position regardless of how many bases ride
   along.  [multi_pow] interleaves 1-bit subset-product tables in
   chunks of up to 6 bases. *)

(* At 6 bases per chunk the subset table is 63 products — past that,
   table construction dominates the shared-squaring savings. *)
let multi_pow_chunk = 6

let multi_pow ctx pairs =
  List.iter
    (fun (_, e) ->
      if Bignum.sign e < 0 then
        invalid_arg "Montgomery.multi_pow: negative exponent")
    pairs;
  let pairs = Array.of_list pairs in
  let n = Array.length pairs in
  let k = ctx.k in
  let nchunks = (n + multi_pow_chunk - 1) / multi_pow_chunk in
  (* Per chunk, subset-product table indexed by a bitmask over the
     chunk's bases: tbl.(mask) = Π_{i ∈ mask} base_i · R. *)
  let tables =
    Array.init nchunks (fun c ->
        let lo = c * multi_pow_chunk in
        let cn = min multi_pow_chunk (n - lo) in
        let tbl = Array.make (1 lsl cn) [||] in
        tbl.(0) <- ctx.one_mont;
        for i = 0 to cn - 1 do
          tbl.(1 lsl i) <- to_mont ctx (fst pairs.(lo + i))
        done;
        for mask = 3 to (1 lsl cn) - 1 do
          let lowbit = mask land -mask in
          if mask <> lowbit then begin
            let dst = Array.make k 0 in
            mont_mul ctx dst tbl.(mask lxor lowbit) tbl.(lowbit);
            tbl.(mask) <- dst
          end
        done;
        tbl)
  in
  let nbits =
    Array.fold_left (fun acc (_, e) -> max acc (Bignum.num_bits e)) 0 pairs
  in
  let acc = Array.copy ctx.one_mont in
  for i = nbits - 1 downto 0 do
    mont_mul ctx acc acc acc;
    for c = 0 to nchunks - 1 do
      let lo = c * multi_pow_chunk in
      let cn = min multi_pow_chunk (n - lo) in
      let mask = ref 0 in
      for j = 0 to cn - 1 do
        if Bignum.test_bit (snd pairs.(lo + j)) i then
          mask := !mask lor (1 lsl j)
      done;
      if !mask <> 0 then mont_mul ctx acc acc tables.(c).(!mask)
    done
  done;
  mont_mul ctx acc acc ctx.one_plain;
  Bignum.of_limbs acc

let pow ctx b e =
  if Bignum.sign e < 0 then invalid_arg "Montgomery.pow: negative exponent";
  (* Single exponentiation = a batch of one; sharing the plan machinery
     keeps the two paths value-identical by construction. *)
  pow_with (powers ctx e) b

let mul ctx a b =
  let a_arr = to_array ctx a and b_arr = to_array ctx b in
  mont_mul ctx a_arr a_arr ctx.r2;
  mont_mul ctx a_arr a_arr b_arr;
  Bignum.of_limbs a_arr
