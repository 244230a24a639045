(** Priority queue of timestamped events (binary min-heap).

    Engine room of the {!Runtime} discrete-event reactor: events pop in
    time order, with FIFO ordering among equal timestamps (a sequence
    number breaks ties), so simulations are fully deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on NaN, infinite or negative time. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event, FIFO among ties; [None] when empty. *)

val peek_time : 'a t -> float option
