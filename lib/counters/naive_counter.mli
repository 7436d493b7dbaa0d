(** The opposite end of the tradeoff: one single-writer register per
    process.  CounterIncrement O(1), CounterRead O(N).  Wait-free, reads
    and writes only.

    One algorithm text (naive_counter.ml-body), two instantiations:
    [Make] over any {!Smem.Memory_intf.MEMORY}, and [Unboxed] on padded
    [int Atomic.t] cells, one cache line per per-process register. *)

module type S := sig
  type t

  val create : n:int -> unit -> t
  val increment : t -> pid:int -> unit
  val read : t -> int
end

module Make (M : Smem.Memory_intf.MEMORY) : S
module Unboxed : S
