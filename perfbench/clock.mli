val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds; allocation-free. *)

val warm : (unit -> 'a) -> unit
(** A full collection, then 100 untimed calls of [build]. *)

val setup_samples : (unit -> 'a) -> samples:int -> float array
(** [samples] set-up times, each the seconds per call of [build] over
    ten calls. *)
