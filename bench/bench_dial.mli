(** The tradeoff-dial sweep (bin/bench.exe --dial): Theorem 1's
    read/update frontier measured, not just certified.

    Two sections: exact solo step counts per dial point over Memsim
    (read Θ(f) vs increment O(log(N/f))), and the throughput rows of
    {!Bench_native}'s dial targets over domains × read share — the
    crossover between dial points slides with the read share, which is
    the paper's tradeoff made operational. *)

(** {1 Exact solo steps (Memsim)} *)

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;
  read_steps : int;
  inc_steps : int;  (** max over all pids *)
}

val steps_rows : n:int -> step_row list

val steps_table :
  ?envelope:(Treeprim.Dial.t -> int * int) ->
  n:int -> step_row list -> string
(** [envelope dial] supplies certified (read, increment) step ceilings
    as extra columns — injected by the caller so benchkit itself does
    not depend on the lint library. *)

(** {1 JSON trajectory} *)

val to_json :
  cfg:Bench_native.config ->
  steps:step_row list ->
  Bench_native.row list ->
  Obs.Json_out.t
(** Schema ["bench-dial/v2"]: {!Bench_native.to_json}'s host and config
    sections, a ["steps"] section, and ["rows"] in the
    ["bench-native/v5"] row shape. *)
