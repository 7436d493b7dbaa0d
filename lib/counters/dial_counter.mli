(** The tradeoff-dial counter: Theorem 1's frontier as one block-
    structured construction.  A dial point f ({!Treeprim.Dial}) groups
    the N per-process leaves into f blocks of ceil(N/f) leaves, each a
    sum f-array: CounterRead collects the f block roots in Theta(f)
    steps, CounterIncrement propagates only inside its own block in
    O(log(N/f)) steps.  [F_one] coincides with {!Farray_counter},
    [F_n] with {!Naive_counter}. *)

module Make (M : Smem.Memory_intf.MEMORY) : sig
  type t

  val create : n:int -> dial:Treeprim.Dial.t -> t
  val increment : t -> pid:int -> unit
  (** Leaf bump + in-block propagation: O(log(N/f)) events. *)

  val read : t -> int
  (** Collect of the f block roots: Theta(f) events. *)
end

(** The zero-alloc native twin over {!Farray.Unboxed} blocks: identical
    geometry and step counts, no allocation per read/increment.
    [padded] (default true) puts each tree node on its own cache
    line. *)
module Unboxed : sig
  type t

  val create : ?padded:bool -> n:int -> dial:Treeprim.Dial.t -> unit -> t
  val increment : t -> pid:int -> unit

  val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
  (** [increment] with refresh rounds and CAS outcomes recorded under
      shard [pid]; free with {!Obs.Metrics.disabled}. *)

  val read : t -> int
end
