(** Per-layer figures for the traced run, measured from outside the
    library by timing calls into each module's public functions, one span
    per batch of calls (see {!Spans}):

    - [Smem.Unboxed_memory.Padded] primitives, solo and shared;
    - [Treeprim.Propagate.Unboxed.propagate] on a 64-leaf complete tree,
      solo and from two sibling leaves;
    - [Maxreg.Algorithm_a.Unboxed] / [Counters.Farray_counter.Unboxed]
      called directly, and the same operations through the
      [Harness.Instances] records, grouped by kind over the workload
      stream;
    - exact steps per operation from [Smem.Counting_memory];
    - retries and helping from the [_native_metered] instances;
    - the benchmark's own loop (generator plus [Harness.Throughput]) and
      its clock, and the loop's share of an operation's time;
    - the updates' share of the time spent in structure calls at the
      workload's mix;
    - the simulator, DPOR and the checker on the [model-check] programs.

    Each layer is measured the same way on every workload; the stream
    based ones follow the workload's read share. *)

val native : seed:int -> read_share:float -> seconds:float -> Spans.t array -> Report.metric list
(** Every native-layer figure, spans recorded into [bufs.(d)] for domain
    [d]. *)

val model_check : ?round:Mc.round -> Spans.t -> Report.metric list
(** The [dpor.*], [memsim.*] and [linearize.*] figures: from a traced
    round recorded into the buffer (given, or explored here), plus one
    counting round. *)
