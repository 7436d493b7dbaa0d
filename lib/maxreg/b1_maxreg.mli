(** The unbounded Aspnes–Attiya–Censor max register from reads and writes
    only: the bounded switch recursion applied to a Bentley–Yao B1-shaped
    partition of the unbounded value domain, giving WriteMax(v) O(log v)
    and ReadMax O(log vmax) with no bound fixed in advance.  The tree is
    materialized lazily (memory proportional to values written);
    materialization is domain-safe.

    One algorithm text (b1_maxreg.ml-body), two instantiations: [Make]
    over any {!Smem.Memory_intf.MEMORY}, and [Unboxed] with raw 0/1
    [int Atomic.t] switches — first touch of a subtree still allocates
    (lazy materialization), the steady-state recursion over forced nodes
    allocates nothing. *)

module type S := sig
  type t

  val create : unit -> t

  val read_max : t -> int
  (** O(log vmax) steps, where vmax is the largest value written. *)

  val write_max : t -> pid:int -> int -> unit
  (** O(log v) steps; [pid] is ignored (kept for interface uniformity). *)
end

module Make (M : Smem.Memory_intf.MEMORY) : S
module Unboxed : S
