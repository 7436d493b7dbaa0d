(** The native workloads ([update-heavy], [read-heavy]): two domains in
    a closed loop over an Algorithm A max register and an f-array
    counter from [Harness.Instances.maxreg_native_fast] /
    [counter_native_fast] at [n = 64], called through the instance
    records.  Updates split evenly between [write_max] and [increment],
    reads between [read_max] and the counter's [read]. *)

val n : int
val domains : int

type state = {
  mr : Maxreg.Max_register.instance;
  ctr : Counters.Counter.instance;
  cursors : Gen.cursor array;
}

val objects : unit -> Maxreg.Max_register.instance * Counters.Counter.instance
(** A fresh max register and counter, as the workloads use them. *)

val build : seed:int -> read_share:float -> state
(** Fresh objects and cursors.  The reported set-up time covers the two
    [Harness.Instances] constructors only, not the generator. *)

val run : seed:int -> read_share:float -> seconds:float -> Report.t
(** The untraced run: throughput trials (no clocks in the loop)
    interleaved with latency trials (every operation timed), then the
    correctness checks. *)

val run_traced :
  seed:int -> read_share:float -> seconds:float -> Spans.t array ->
  Report.t
(** The traced run's workload part: untraced and traced throughput
    trials in alternation (one span per batch), giving the tracing
    overhead, the workload-truth figures and the allocation rate. *)
