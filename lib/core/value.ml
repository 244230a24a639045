type t = Int of int | Money of int | Time of int | Str of string

let kind_rank = function Int _ -> 0 | Money _ -> 1 | Time _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Money x, Money y -> Stdlib.compare x y
  | Time x, Time y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | (Int _ | Money _ | Time _ | Str _), _ ->
    Stdlib.compare (kind_rank a) (kind_rank b)

let equal a b = compare a b = 0

let comparison_class = function
  | Int _ | Time _ -> "num"
  | Money _ -> "money"
  | Str _ -> "str"

let comparable a b = String.equal (comparison_class a) (comparison_class b)

let compare_semantic a b =
  match (a, b) with
  | (Int x | Time x), (Int y | Time y) -> Stdlib.compare x y
  | Money x, Money y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | (Int _ | Money _ | Time _ | Str _), _ ->
    invalid_arg "Value.compare_semantic: values are not comparable"

let money_of_float f = Money (int_of_float (Float.round (f *. 100.0)))

let to_string = function
  | Int v -> string_of_int v
  | Money v ->
    let sign = if v < 0 then "-" else "" in
    Printf.sprintf "%s%d.%02d" sign (abs v / 100) (abs v mod 100)
  | Time v -> string_of_int v
  | Str s -> s

let to_wire = function
  | Int v -> Printf.sprintf "i:%d" v
  | Money v -> Printf.sprintf "m:%d" v
  | Time v -> Printf.sprintf "t:%d" v
  | Str s -> Printf.sprintf "s:%s" s

let of_wire w =
  let fail () = invalid_arg "Value.of_wire: malformed value" in
  if String.length w < 2 || w.[1] <> ':' then fail ()
  else begin
    let body = String.sub w 2 (String.length w - 2) in
    let as_int () = match int_of_string_opt body with Some v -> v | None -> fail () in
    match w.[0] with
    | 'i' -> Int (as_int ())
    | 'm' -> Money (as_int ())
    | 't' -> Time (as_int ())
    | 's' -> Str body
    | _ -> fail ()
  end
