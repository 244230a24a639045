(* Arbitrary-precision signed integers on 26-bit limbs.

   Invariants, maintained by every constructor:
   - [mag] is little-endian, each limb in [0, 2^26), no leading (high) zero
     limb;
   - [sign] is 0 iff [mag] is empty, otherwise -1 or 1.

   26-bit limbs keep every intermediate value of schoolbook multiplication
   and Knuth division below 2^53, far inside the 63-bit native [int]. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude (natural number) primitives on bare limb arrays.          *)
(* ------------------------------------------------------------------ *)

(* Strip high zero limbs; shares the array when already trimmed. *)
let nat_trim a =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let t = top n in
  if t = n then a else Array.sub a 0 t

let nat_is_zero a = Array.length a = 0

let nat_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let nat_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(l) <- !carry;
  nat_trim r

(* Requires a >= b. *)
let nat_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  nat_trim r

let nat_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land limb_mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    nat_trim r
  end

let karatsuba_threshold = 32

(* Karatsuba recursion: split at half the longer operand.  The three
   sub-products are combined as z2*B^2m + (z1 - z2 - z0)*B^m + z0. *)
let rec nat_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then
    nat_mul_school a b
  else begin
    let m = (Stdlib.max la lb + 1) / 2 in
    let lo x = nat_trim (Array.sub x 0 (Stdlib.min m (Array.length x))) in
    let hi x =
      let l = Array.length x in
      if l <= m then [||] else Array.sub x m (l - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = nat_mul a0 b0 in
    let z2 = nat_mul a1 b1 in
    let z1 = nat_mul (nat_add a0 a1) (nat_add b0 b1) in
    let mid = nat_sub (nat_sub z1 z2) z0 in
    let shift k x =
      if nat_is_zero x then [||]
      else begin
        let r = Array.make (Array.length x + k) 0 in
        Array.blit x 0 r k (Array.length x);
        r
      end
    in
    nat_add z0 (nat_add (shift m mid) (shift (2 * m) z2))
  end

let nat_shift_left a bits =
  if nat_is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if off = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl off) lor !carry in
        r.(i + limbs) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    nat_trim r
  end

let nat_shift_right a bits =
  if nat_is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      if off = 0 then Array.blit a limbs r 0 l
      else
        for i = 0 to l - 1 do
          let lo = a.(i + limbs) lsr off in
          let hi =
            if i + limbs + 1 < la then
              (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      nat_trim r
    end
  end

let nat_num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((la - 1) * limb_bits) + width 1
  end

(* The [w] <= 26 bits of [a] starting at bit [off]; bits above the top
   limb read as zero. *)
let nat_bits a off w =
  let i = off / limb_bits and s = off mod limb_bits in
  let la = Array.length a in
  let lo = if i < la then a.(i) lsr s else 0 in
  let hi = if i + 1 < la then a.(i + 1) lsl (limb_bits - s) else 0 in
  (lo lor hi) land ((1 lsl w) - 1)

(* Short division by a single limb 0 < d < 2^26. *)
let nat_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (nat_trim q, !r)

(* Knuth Algorithm D.  Requires [Array.length v >= 2] after trimming and
   [nat_compare u v >= 0]; both preconditions are arranged by the caller. *)
let nat_divmod_knuth u v =
  let n = Array.length v in
  (* D1: normalize so that the top limb of v has its high bit set. *)
  let shift = limb_bits - nat_num_bits [| v.(n - 1) |] in
  let v = nat_shift_left v shift in
  let u = nat_shift_left u shift in
  let m = Array.length u - n in
  (* Working copy of u with one extra high limb. *)
  let w = Array.make (Array.length u + 1) 0 in
  Array.blit u 0 w 0 (Array.length u);
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) in
  let vnext = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    (* D3: estimate the quotient digit from the top limbs. *)
    let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    if !qhat >= limb_base then begin
      qhat := limb_base - 1;
      rhat := num - (!qhat * vtop)
    end;
    let rec adjust () =
      if !qhat * vnext > (!rhat lsl limb_bits) lor w.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat < limb_base then adjust ()
      end
    in
    adjust ();
    (* D4: multiply and subtract. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let t = w.(j + i) - !borrow - (!qhat * v.(i)) in
      w.(j + i) <- t land limb_mask;
      borrow := -(t asr limb_bits)
    done;
    let t = w.(j + n) - !borrow in
    w.(j + n) <- t land limb_mask;
    (* D5/D6: if we over-subtracted, add the divisor back once. *)
    if t < 0 then begin
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = w.(j + i) + v.(i) + !carry in
        w.(j + i) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      w.(j + n) <- (w.(j + n) + !carry) land limb_mask
    end;
    q.(j) <- !qhat
  done;
  let r = nat_trim (Array.sub w 0 n) in
  (nat_trim q, nat_shift_right r shift)

let nat_divmod u v =
  if nat_is_zero v then raise Division_by_zero
  else if nat_compare u v < 0 then ([||], u)
  else if Array.length v = 1 then begin
    let q, r = nat_divmod_small u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else nat_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed layer.                                                       *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = nat_trim mag in
  if nat_is_zero mag then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec limbs n acc =
      if n = 0 then List.rev acc
      else limbs (n lsr limb_bits) ((n land limb_mask) :: acc)
    in
    let mag =
      if n = min_int then
        (* |min_int| = 2^62 is not representable as a positive int;
           2^62 = limb 2^(62 - 2*26) at index 2. *)
        [| 0; 0; 1 lsl (62 - (2 * limb_bits)) |]
      else Array.of_list (limbs (Stdlib.abs n) [])
    in
    make sign mag
  end

let one = of_int 1
let two = of_int 2

let sign t = t.sign
let is_zero t = t.sign = 0

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then nat_compare a.mag b.mag
  else nat_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (nat_add a.mag b.mag)
  else begin
    let c = nat_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (nat_sub a.mag b.mag)
    else make b.sign (nat_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (nat_mul a.mag b.mag)

let div_rem a b =
  if b.sign = 0 then raise Division_by_zero
  else begin
    let q, r = nat_divmod a.mag b.mag in
    (make (a.sign * b.sign) q, make a.sign r)
  end

let div a b = fst (div_rem a b)
let rem a b = snd (div_rem a b)

let erem a m =
  let r = rem a m in
  if r.sign < 0 then add r (abs m) else r

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let pow b e =
  if e < 0 then invalid_arg "Bignum.pow: negative exponent"
  else begin
    let rec go acc b e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (e lsr 1)
      end
    in
    go one b e
  end

let num_bits t = nat_num_bits t.mag

let test_bit t i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr off) land 1 = 1

let shift_left t bits =
  if bits < 0 then invalid_arg "Bignum.shift_left"
  else make t.sign (nat_shift_left t.mag bits)

let shift_right t bits =
  if bits < 0 then invalid_arg "Bignum.shift_right"
  else make t.sign (nat_shift_right t.mag bits)

let is_even t = not (test_bit t 0)
let is_odd t = test_bit t 0

let bitwise name op a b =
  if a.sign < 0 || b.sign < 0 then
    invalid_arg (Printf.sprintf "Bignum.%s: negative operand" name)
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let l = Stdlib.max la lb in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      let x = if i < la then a.mag.(i) else 0
      and y = if i < lb then b.mag.(i) else 0 in
      r.(i) <- op x y
    done;
    make 1 r
  end

let logand = bitwise "logand" ( land )
let logor = bitwise "logor" ( lor )
let logxor = bitwise "logxor" ( lxor )

let to_int_opt t =
  if t.sign = 0 then Some 0
  else if num_bits t > 62 then
    (* The one asymmetric case: |min_int| = 2^62 needs 63 magnitude bits. *)
    if t.sign = -1 && num_bits t = 63 && not (Array.exists (fun l -> l <> 0) (Array.sub t.mag 0 (Array.length t.mag - 1))) && t.mag.(Array.length t.mag - 1) = 1 lsl (62 - (2 * limb_bits))
    then Some min_int
    else None
  else begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bignum.to_int: value out of int range"

(* Decimal I/O processes 7-digit chunks: 10^7 < 2^26 keeps the short
   division/multiplication in single-limb range. *)
let dec_chunk = 10_000_000
let dec_chunk_digits = 7

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if nat_is_zero mag then acc
      else begin
        let q, r = nat_divmod_small mag dec_chunk in
        go q (r :: acc)
      end
    in
    match go t.mag [] with
    | [] -> "0"
    | first :: rest ->
      if t.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter
        (fun chunk ->
          Buffer.add_string buf (Printf.sprintf "%0*d" dec_chunk_digits chunk))
        rest;
      Buffer.contents buf
  end

let of_hex_body s =
  let v = ref zero in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Bignum.of_hex: invalid character"
      in
      if d >= 0 then v := add_int (shift_left !v 4) d)
    s;
  !v

let of_hex s =
  if s = "" then invalid_arg "Bignum.of_hex: empty string" else of_hex_body s

let of_string s =
  if s = "" then invalid_arg "Bignum.of_string: empty string"
  else begin
    let negative = s.[0] = '-' in
    let body = if negative || s.[0] = '+' then String.sub s 1 (String.length s - 1) else s in
    if body = "" then invalid_arg "Bignum.of_string: empty body"
    else begin
      let v =
        if String.length body > 2 && body.[0] = '0'
           && (body.[1] = 'x' || body.[1] = 'X')
        then of_hex_body (String.sub body 2 (String.length body - 2))
        else begin
          let v = ref zero in
          String.iter
            (fun c ->
              match c with
              | '0' .. '9' ->
                v := add_int (mul_int !v 10) (Char.code c - Char.code '0')
              | '_' -> ()
              | _ -> invalid_arg "Bignum.of_string: invalid character")
            body;
          !v
        end
      in
      if negative then neg v else v
    end
  end

let to_hex t =
  if t.sign = 0 then "0"
  else begin
    let digits = (num_bits t + 3) / 4 in
    let hex =
      String.init digits (fun i ->
          "0123456789abcdef".[nat_bits t.mag (4 * (digits - 1 - i)) 4])
    in
    if t.sign < 0 then "-" ^ hex else hex
  end

(* Each byte lands in the one or two limbs its eight bits straddle. *)
let of_bytes_be s =
  let n = String.length s in
  let mag = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  String.iteri
    (fun i c ->
      let off = 8 * (n - 1 - i) in
      let j = off / limb_bits and b = Char.code c lsl (off mod limb_bits) in
      mag.(j) <- mag.(j) lor (b land limb_mask);
      if b > limb_mask then mag.(j + 1) <- mag.(j + 1) lor (b lsr limb_bits))
    s;
  make 1 mag

let to_bytes_be t =
  if t.sign < 0 then invalid_arg "Bignum.to_bytes_be: negative value"
  else begin
    let nbytes = (num_bits t + 7) / 8 in
    String.init nbytes (fun i ->
        Char.chr (nat_bits t.mag (8 * (nbytes - 1 - i)) 8))
  end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

let pp fmt t = Format.pp_print_string fmt (to_string t)

let to_limbs t =
  if t.sign < 0 then invalid_arg "Bignum.to_limbs: negative value"
  else Array.copy t.mag

let of_limbs limbs =
  if Array.exists (fun l -> l < 0 || l >= limb_base) limbs then
    invalid_arg "Bignum.of_limbs: limb out of range"
  else make 1 (Array.copy limbs)
