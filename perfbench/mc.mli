(** The [model-check] workload: exhaustive DPOR exploration of two
    three-process programs at [n = 3], every complete execution checked
    for linearizability.

    - f-array counter, increment + increment + read;
    - Algorithm A max register, write_max 1 + write_max 3 + read_max.

    Both objects come from [Harness.Instances.counter_sim]/[maxreg_sim]
    (the boxed [Make (MEMORY)] path over the simulator) wrapped by
    [Harness.Annotate]; [Memsim.Dpor.run] explores and
    [Linearize.Checker.check_trace] checks.  One operation of this
    workload is one complete execution. *)

type round = {
  executions : int;
  sleep_blocked : int;
  failed : int;          (** non-linearizable executions + truncated runs *)
  latencies : Obs.Histogram.t;  (** ns from one execution's end to the next's *)
  elapsed_ns : int;      (** the round's wall time *)
  minor_words : float;
  per_program : (string * int) list;  (** executions per program *)
}

val setup : unit -> unit
(** Build both programs' sessions and annotated objects once. *)

val round : ?spans:Spans.t -> unit -> round
(** Explore both programs once.  With [spans], record one ["dpor.run"]
    span per exploration and one ["linearize.check"] child per checker
    call. *)

val memsim_events : unit -> int
(** Shared-memory events issued over one round, prefix re-execution
    included, counted by [Smem.Counting_memory.wrap] around
    [Smem.Sim_memory.bind]. *)

val reads_share : float
(** Declared share of reads among the programs' operations (1/3). *)

val read_calls : unit -> int * int
(** [(reads, operations)] invoked by the programs' bodies since start. *)
