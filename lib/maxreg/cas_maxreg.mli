(** Baseline max register: one register updated by a CAS retry loop.
    ReadMax is O(1); WriteMax is lock-free but {e not} wait-free — under
    the Theorem 3 adversary a single WriteMax is stretched to Theta(K)
    steps (see EXPERIMENTS.md E5), which is what Algorithm A's tree
    structure avoids.

    One algorithm text (cas_maxreg.ml-body), two instantiations: [Make]
    over any {!Smem.Memory_intf.MEMORY}, and [Unboxed] on a padded
    [int Atomic.t] — zero allocation per operation, failed CAS attempts
    included. *)

module type S := sig
  type t

  val create : unit -> t
  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
end

module Make (M : Smem.Memory_intf.MEMORY) : S

module Unboxed : sig
  include S

  val write_max_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
  (** [write_max] recording every CAS attempt and failure under shard
      [pid] — the retry count the Theorem 3 adversary stretches.  Free
      (one immediate-bool branch per site) with {!Obs.Metrics.disabled}. *)
end
