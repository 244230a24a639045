type t = Defined of string | Undefined of int

let compare a b =
  match (a, b) with
  | Defined x, Defined y -> String.compare x y
  | Undefined x, Undefined y -> Stdlib.compare x y
  | Defined _, Undefined _ -> -1
  | Undefined _, Defined _ -> 1

let equal a b = compare a b = 0

let defined name =
  if name = "" then invalid_arg "Attribute.defined: empty name"
  else Defined (String.lowercase_ascii name)

let undefined i =
  if i < 1 then invalid_arg "Attribute.undefined: index must be >= 1"
  else Undefined i

let is_undefined = function Undefined _ -> true | Defined _ -> false

let of_string s =
  let is_cn =
    String.length s >= 2
    && (s.[0] = 'C' || s.[0] = 'c')
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (String.sub s 1 (String.length s - 1))
  in
  if is_cn then begin
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 1 -> Undefined i
    | Some _ | None -> defined s
  end
  else defined s

let to_string = function
  | Defined name -> name
  | Undefined i -> Printf.sprintf "C%d" i

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
