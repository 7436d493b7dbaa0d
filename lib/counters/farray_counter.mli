(** Jayanti's counter from an f-array with f = sum: CounterRead O(1),
    CounterIncrement O(log N), from read/write/CAS.  Theorem 1 of the
    paper shows this read/update point is optimal.

    One algorithm text (farray_counter.ml-body), two instantiations:
    [Make] over {!Farray.Make} and [Unboxed] over the padded
    {!Farray.Unboxed} — identical step counts, zero allocation per
    read/increment. *)

module type S := sig
  type t

  val create : n:int -> unit -> t
  val increment : t -> pid:int -> unit

  val read : t -> int
  (** One shared-memory event. *)
end

module Make (M : Smem.Memory_intf.MEMORY) : S

module Unboxed : sig
  include S

  val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
  (** [increment] with propagation refresh rounds and CAS outcomes
      recorded under shard [pid]; free with {!Obs.Metrics.disabled}. *)

  val add : t -> pid:int -> int -> unit
  (** [add t ~pid k] adds [k] to the caller's own leaf with one update
      (one propagation for the whole batch) — the combining layer's
      apply: the counter value is the sum over leaves, so the combiner
      absorbs a batch at its own leaf without breaking the single-writer
      discipline. *)

  val add_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
end
