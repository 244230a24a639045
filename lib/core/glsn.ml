type t = int

let compare = Int.compare
let equal = Int.equal
let to_string t = Printf.sprintf "%x" t

let of_string s =
  match int_of_string_opt ("0x" ^ s) with
  | Some v when v >= 0 -> v
  | Some _ | None -> invalid_arg "Glsn.of_string: not a hex glsn"

let to_int t = t
module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Allocator = struct
  type nonrec t = { mutable next_value : int; mutable issued : int }

  (* Table 1 starts at 139aef78. *)
  let default_start = 0x139aef78

  let create ?(start = default_start) () = { next_value = start; issued = 0 }

  let next t =
    let v = t.next_value in
    t.next_value <- v + 1;
    t.issued <- t.issued + 1;
    v

  let issued t = t.issued
end
