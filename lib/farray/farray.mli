(** Jayanti-style f-arrays (PODC 2002) from read/write/CAS: a complete
    binary tree maintaining an aggregate of a single-writer array, with
    O(1) reads of the aggregate at the root and O(log n) updates via
    double-refresh propagation.

    The CAS propagation is ABA-free as long as node values never recur:
    guaranteed for monotone aggregates (sums, maxima) or sequence-stamped
    leaf values.

    One algorithm text (farray.ml-body), two instantiations: [Make] over
    any {!Smem.Memory_intf.MEMORY}, and [Unboxed] over [int Atomic.t]
    nodes, each padded to its own cache line, where [combine] works on
    raw ints (leaves start at the [bot] sentinel; interpret it as "no
    contribution") and read/update perform no allocation. *)

module type S := sig
  type t

  type value
  (** The values a leaf holds. *)

  val create :
    ?refreshes:int ->
    n:int ->
    combine:(value -> value -> value) ->
    unit ->
    t
  (** An f-array over [n] single-writer leaves, all initially
      {!Memsim.Simval.Bot} (or the unboxed [bot] sentinel); internal nodes
      hold [combine left right] (interpret [Bot] as "no contribution").
      [refreshes] (default 2) is the per-node refresh count during
      propagation; 1 is an ablation that loses updates (experiment A2). *)

  val n : t -> int

  val read : t -> value
  (** The root aggregate: one shared-memory event. *)

  val read_leaf : t -> int -> value
  (** One event; leaves are single-writer, so the owner can recover its
      last value. *)

  val update : t -> leaf:int -> value -> unit
  (** Write leaf [i] and propagate: O(log n) events. *)

  val leaf_depth : t -> int -> int
end

module Make (M : Smem.Memory_intf.MEMORY) : S with type value := Memsim.Simval.t

module Unboxed : sig
  include S with type value := int

  val update_metered :
    t -> metrics:Obs.Metrics.t -> domain:int -> leaf:int -> int -> unit
  (** [update] with refresh rounds and CAS outcomes recorded under shard
      [domain] (pass the calling pid); free with
      {!Obs.Metrics.disabled}. *)
end
