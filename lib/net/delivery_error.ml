type t = Source_down | Destination_down | Loss

(* These strings are load-bearing: they are the exact reasons the
   stringly [Network.Dropped] / ledger paths have always rendered, so
   swapping the typed representation in cannot move a transcript. *)
let to_string = function
  | Source_down -> "source down"
  | Destination_down -> "destination down"
  | Loss -> "loss"
