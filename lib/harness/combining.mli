(** Flat-combining backends: the unboxed natives behind a
    {!Smem.Combine} arena, with structure-specific fast paths and
    elimination (see the implementation header and DESIGN.md §12).

    Concrete modules, like the Unboxed natives: a functor indirection
    would cost more than the fast paths being protected.  Constructors
    take [domains] — the number of {e participating} domains (slot
    count; ids are [0 .. domains-1] and every [pid] passed to an
    operation must be one) — which is distinct from the structure size
    [n] where both exist.  In the plain constructors, [domains = 1]
    short-circuits to a direct call of the plain unboxed operation
    before any arena or elimination bookkeeping — a single
    participating domain cannot contend, so the single-domain rows must
    cost within a branch of the plain backend; on that path no stats
    (eliminations included) are recorded.  The [create_metered]
    variants keep the full fast-path/arena policy at every domain
    count: the metrics pass measures counters, not time.

    The [create_metered] variants route the combiner's apply through the
    [_metered] entry points of the underlying structure, so CAS
    attempts/failures and refresh rounds land in [metrics] under the
    {e combiner's} shard; combining stats themselves live in the arena
    ({!Smem.Combine.stats}) and are flushed with
    {!Obs.Metrics.record_combine_stats} by the measurement driver. *)

module Alg_a : sig
  type t

  val create : ?spin:int -> n:int -> domains:int -> unit -> t

  val create_metered :
    ?spin:int -> metrics:Obs.Metrics.t -> n:int -> domains:int -> unit -> t

  val arena : t -> Smem.Combine.t
  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
end

module Farray_c : sig
  type t

  val create : ?spin:int -> n:int -> domains:int -> unit -> t

  val create_metered :
    ?spin:int -> metrics:Obs.Metrics.t -> n:int -> domains:int -> unit -> t

  val arena : t -> Smem.Combine.t
  val read : t -> int
  val increment : t -> pid:int -> unit
end
