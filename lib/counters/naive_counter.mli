(** The opposite end of the tradeoff: one single-writer register per
    process.  CounterIncrement O(1), CounterRead O(N).  Wait-free, reads
    and writes only. *)

module Make (M : Smem.Memory_intf.MEMORY) : sig
  type t

  val create : n:int -> t
  val increment : t -> pid:int -> unit
  val read : t -> int
end

(** The same counter on bare [int Atomic.t] cells (see
    {!Smem.Unboxed_memory}).  An array of adjacent one-word atomics is the
    structure most exposed to false sharing, so [padded] defaults to true:
    every per-process register gets its own cache line. *)
module Unboxed : sig
  type t

  val create : ?padded:bool -> n:int -> unit -> t
  val increment : t -> pid:int -> unit
  val read : t -> int
end
