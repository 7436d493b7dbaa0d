(** The tradeoff-dial counter: Theorem 1's frontier as one block-
    structured construction.  A dial point f ({!Treeprim.Dial}) groups
    the N per-process leaves into f blocks of ceil(N/f) leaves, each a
    sum f-array: CounterRead collects the f block roots in Theta(f)
    steps, CounterIncrement propagates only inside its own block in
    O(log(N/f)) steps.  [F_one] coincides with {!Farray_counter},
    [F_n] with {!Naive_counter}.

    One algorithm text (dial_counter.ml-body), two instantiations:
    [Make] over {!Farray.Make} blocks and the zero-alloc [Unboxed] twin
    over {!Farray.Unboxed} blocks. *)

module type S := sig
  type t

  val create : n:int -> dial:Treeprim.Dial.t -> unit -> t
  val increment : t -> pid:int -> unit
  (** Leaf bump + in-block propagation: O(log(N/f)) events. *)

  val read : t -> int
  (** Collect of the f block roots: Theta(f) events. *)
end

module Make (M : Smem.Memory_intf.MEMORY) : S

module Unboxed : sig
  include S

  val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
  (** [increment] with refresh rounds and CAS outcomes recorded under
      shard [pid]; free with {!Obs.Metrics.disabled}. *)
end
