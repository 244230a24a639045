type t =
  | User of int
  | Dla of int
  | Ttp of string
  | Authority
  | Auditor

let compare = Stdlib.compare
let equal a b = compare a b = 0

let to_string = function
  | User i -> Printf.sprintf "u%d" i
  | Dla i -> Printf.sprintf "P%d" i
  | Ttp name -> Printf.sprintf "ttp:%s" name
  | Authority -> "authority"
  | Auditor -> "auditor"

let dla_ring n = List.init n (fun i -> Dla i)
let users n = List.init n (fun i -> User i)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
