(** Baseline max register: one register updated by a CAS retry loop.
    ReadMax is O(1); WriteMax is lock-free but {e not} wait-free — under
    the Theorem 3 adversary a single WriteMax is stretched to Theta(K)
    steps (see EXPERIMENTS.md E5), which is what Algorithm A's tree
    structure avoids. *)

module Make (M : Smem.Memory_intf.MEMORY) : sig
  type t

  val create : unit -> t
  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
end

(** The same retry loop on a bare [int Atomic.t] (see
    {!Smem.Unboxed_memory}): zero allocation per operation, including
    failed CAS attempts.  [padded] (default true) gives the register its
    own cache line. *)
module Unboxed : sig
  type t

  val create : ?padded:bool -> unit -> t
  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit

  val write_max_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
  (** [write_max] recording every CAS attempt and failure under shard
      [pid] — the retry count the Theorem 3 adversary stretches.  Free
      (one immediate-bool branch per site) with {!Obs.Metrics.disabled}. *)
end
