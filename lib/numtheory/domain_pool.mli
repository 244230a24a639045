(** Fixed pool of OCaml 5 domains for pure batch compute.

    An installed pool takes the modexp-heavy tail of an SMC round —
    the {!Modular.pow_many} batches every ∩ₛ/∪ₛ ring hop re-encrypts
    through — to a small set of worker domains.  Determinism is preserved by
    construction: work is split into {e contiguous} chunks whose sizes
    depend only on the batch length and the pool width, results are
    joined in submission order, and workers run pure closures that
    touch neither the global metrics registry nor the shared Montgomery
    context cache (each chunk builds private context state).  A batch
    therefore returns byte-identical results at any pool width.

    Submission happens only from the domain that owns the pool; worker
    domains never submit.  Counters ([pool.*]) are advanced on the
    submitter side only, so {!Obs.Metrics} is never written
    concurrently. *)

type t

val create : domains:int -> t
(** A pool that splits batches [domains] ways.  [domains - 1] worker
    domains are spawned (the submitting domain always executes the
    first chunk itself); [~domains:1] spawns nothing and runs every
    batch inline.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** The configured width (including the submitter). *)

val current : unit -> t
(** The ambient pool installed by the innermost {!with_pool}, or
    outside any scope a shared width-1 pool that runs every batch
    inline on the caller, so library code can call {!map_list}
    unconditionally. *)

val with_pool : t -> (unit -> 'a) -> 'a
(** Run a thunk with [t] installed as the ambient pool ({!current});
    restores the previous pool on exit, including on exceptions. *)

val map_list : t -> min_chunk:int -> ('a list -> 'b list) -> 'a list -> 'b list
(** [map_list t ~min_chunk f xs] splits [xs] into at most
    [domains t] contiguous chunks, applies [f] to each chunk ([f] must
    be pure and element-wise: [f (a @ b) = f a @ f b]), and
    concatenates the results in order — observationally [f xs].
    Batches shorter than [2 * min_chunk] (and any batch on a width-1
    pool) run inline on the caller; farmed batches advance
    [pool.batches] and [pool.jobs], inline ones [pool.inline].
    Every chunk has finished when [map_list] returns, so no compute
    outlives the call: a chunk's exception is re-raised on the caller
    after the join (the first in chunk order).
    {!Modular.pow_many} is its one caller in the library, and it calls
    [map_list] only for a batch it will farm (pool wider than 1, at
    least [2 * min_chunk] elements), so there [pool.inline] stays 0 by
    construction: the batches [pow_many] keeps on the caller are not
    counted. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  The pool must not be used
    afterwards; idempotent. *)
