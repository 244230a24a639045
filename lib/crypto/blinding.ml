open Numtheory

type affine = { a : Bignum.t; b : Bignum.t; p : Bignum.t }

let generate_affine rng ~p =
  if Bignum.compare p Bignum.two < 0 then
    invalid_arg "Blinding.generate_affine: modulus too small"
  else
    {
      a = Prng.bignum_range rng Bignum.one p;
      b = Prng.bignum_below rng p;
      p;
    }

let apply_affine { a; b; p } y =
  Obs.Metrics.incr "crypto.blind.affine";
  Modular.add (Modular.mul a y ~m:p) b ~m:p

let apply_affine_many blind ys = List.map (apply_affine blind) ys

type monotone = { scale : Bignum.t; offset : Bignum.t }

let generate_monotone rng ~bits =
  if bits < 1 then invalid_arg "Blinding.generate_monotone: bits < 1"
  else
    {
      scale = Bignum.succ (Prng.bits rng bits);
      offset = Prng.bits rng bits;
    }

let apply_monotone { scale; offset } y =
  Obs.Metrics.incr "crypto.blind.monotone";
  Bignum.add (Bignum.mul scale y) offset

let apply_monotone_many blind ys =
  let { scale; offset } = blind in
  Obs.Metrics.incr ~by:(List.length ys) "crypto.blind.monotone";
  List.map (fun y -> Bignum.add (Bignum.mul scale y) offset) ys
