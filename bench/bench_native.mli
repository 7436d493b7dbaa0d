(** The native sweep behind [bin/bench.exe].  The backend sweep
    runs max registers and counters over three backends — boxed (Simval
    Atomic), unboxed (padded int Atomic) and flat-combining
    ({!Harness.Combining} over a {!Smem.Combine} arena, for algorithm-a
    and the f-array counter); the dial sweep ([bench --dial]) runs the
    unboxed {!Counters.Dial_counter} at each dial point, N = {!dial_n}.
    Either is swept over domain counts and read shares.
    All cells are built up front and their throughput trials run in
    interleaved rounds so host drift lands evenly; rows are medians with
    a relative-stddev noise figure.  Every cell writes through a
    per-domain value cursor that persists across its warmup, trials and
    latency pass, so each trial writes values no earlier pass wrote.
    Latency percentiles, contention metrics and the max registers'
    stale-write share come from separate passes so the timed loops stay
    unperturbed. *)

type config

val config :
  ?quick:bool ->
  ?dial:bool ->
  ?max_domains:int ->
  ?seconds:float ->
  ?trials:int ->
  ?read_shares:int list ->
  unit ->
  config
(** [quick] (default false) shrinks seconds/trials to CI-smoke values;
    [dial] (default false) sweeps the dial targets instead of the
    backend ones;
    [max_domains] (default 4) bounds the 1,2,4,.. domain sweep;
    [seconds]/[trials] override the per-trial duration and trial count;
    [read_shares] (default [[0; 50; 90; 99]]) is the read-percentage
    grid. *)

type row

type kind =
  | Maxreg of Harness.Instances.maxreg_impl
  | Counter of Harness.Instances.counter_impl
  | Dial of Treeprim.Dial.t  (** unboxed backend only *)

type backend = [ `Boxed | `Unboxed | `Combining ]

val dial_n : int
(** N of the dial sweep's counters (64: f = 1, 6, 8, 64). *)

val timed_cell :
  kind ->
  backend:backend ->
  n:int ->
  domains:int ->
  read_pct:int ->
  (int -> int -> unit) * (unit -> int)
(** [timed_cell kind ~backend ~n ~domains ~read_pct] builds one sweep
    cell: the closure its trials time ([op d i0] runs one batch as
    domain [d]; {!Harness.Throughput.run_batched} restarts [i0] at 0 on
    every call, and the closure's value cursor carries on regardless)
    and a read of the structure it drives (ReadMax, or the counter's
    read).  Raises [Not_found] for an implementation the sweep does not
    measure and [Invalid_argument] for a backend it lacks. *)

val sweep : ?progress:(string -> unit) -> config -> row list
(** Run the full sweep; [progress] receives oversubscription warnings
    (domain counts beyond {!Harness.Throughput.recommended_domains}),
    one line per trial round, and a line per (target, backend) as the
    latency/metrics epilogue starts. *)

val median : float list -> float
(** Median of the finite members (NaN trials are dropped; the middle
    pair is averaged on even counts).  Exposed for the regression tests
    pinning exactly that behaviour. *)

val rsd : float list -> float
(** Relative standard deviation (sample stddev / mean) of the finite
    members; 0 for fewer than two samples or a non-positive mean.
    Rows above 0.25 are flagged in the table. *)

val table : row list -> string
(** Rendered throughput/latency table. *)

val to_json :
  ?schema:string ->
  ?sections:(string * Obs.Json_out.t) list ->
  cfg:config ->
  row list ->
  Obs.Json_out.t
(** The machine-readable trajectory (schema "bench-native/v5": v4 minus
    the adaptive backend and its [epoch_flips] /
    [time_in_combining_pct] fields, plus a per-row [stale_share] — the
    max registers' measured share of metered-pass writes at or below the
    max read just before them, [null] on counters) consumed by
    EXPERIMENTS.md, the CI smoke job and {!Baseline}.  [schema]
    overrides the schema name and [sections] go between ["config"] and
    ["rows"]; {!Bench_dial.to_json} uses both. *)
