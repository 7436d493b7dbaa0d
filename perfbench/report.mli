(** A run's figures: named metrics with units, plus the operation and
    failure counts the correctness checks produced. *)

type metric = { name : string; value : float; unit : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

type t = {
  attempted : int;       (** operations (or executions) attempted *)
  failed : int;          (** failed correctness checks among them *)
  metrics : metric list; (** what the final JSON line reports *)
  notes : metric list;   (** further figures printed for people only *)
  checks : (string * bool) list;  (** named correctness checks *)
}
