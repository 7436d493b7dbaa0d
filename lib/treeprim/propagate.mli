(** Leaf-to-root propagation with double-refresh CAS (the paper's
    [Propagate], after Jayanti's tree algorithm): at each ancestor the
    combination of the two children is recomputed and CASed in, twice, so a
    failed CAS implies a concurrent refresh installed a value at least as
    fresh.

    Sound with CAS (rather than LL/SC) provided node values never recur —
    guaranteed for monotone aggregates (max, sums) and sequence-stamped
    tuples.

    One algorithm text (propagate.ml-body), two instantiations: [Make]
    over any {!Smem.Memory_intf.MEMORY}, and [Unboxed] over
    [int Atomic.t] nodes, where a missing child reads as the [bot]
    sentinel, [combine] works on raw ints and a propagate performs no
    allocation. *)

module type S := sig
  type cell
  (** A tree node's base object. *)

  type value
  (** The values it holds. *)

  val refresh :
    combine:(value -> value -> value) -> cell Tree_shape.node -> unit
  (** One refresh of one node: 4 shared-memory events (read node, read both
      children, CAS). *)

  val propagate :
    refreshes:int ->
    combine:(value -> value -> value) ->
    cell Tree_shape.node ->
    unit
  (** Refresh every proper ancestor of the given leaf bottom-up,
      [refreshes] times each: O(depth) events.  Correctness requires 2;
      [refreshes:1] is an ablation that admits lost updates (experiment
      A2).  Mandatory, so no call boxes an optional argument. *)
end

module Make (M : Smem.Memory_intf.MEMORY) :
  S with type cell := M.t and type value := Memsim.Simval.t

module Unboxed : sig
  include S with type cell := int Atomic.t and type value := int

  (** {1 Metered variants}

      Identical walk, recording one [Refresh_round] per node refresh and
      one [Cas_attempt] / [Cas_failure] per refresh CAS into the given
      {!Obs.Metrics.t} under shard [domain] (pass the calling pid).  With
      {!Obs.Metrics.disabled} each record site is a single immediate-bool
      branch and allocates nothing. *)

  val refresh_metered :
    metrics:Obs.Metrics.t ->
    domain:int ->
    combine:(int -> int -> int) ->
    int Atomic.t Tree_shape.node ->
    unit

  val propagate_metered :
    metrics:Obs.Metrics.t ->
    domain:int ->
    refreshes:int ->
    combine:(int -> int -> int) ->
    int Atomic.t Tree_shape.node ->
    unit
end
