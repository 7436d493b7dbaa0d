(** The native workloads' operation stream: what each domain does next,
    and with which value.

    Each domain follows its own seeded schedule, a cycle of {!cycle}
    operation kinds holding exactly [round (cycle * read_share)] reads
    (split evenly between the max register and the counter) and updates
    split evenly between [write_max] and [increment].  A {!cursor} carries
    the domain's position and write-value counter across every batch,
    warmup and trial of a run: a domain's [k]-th write is always
    [k * domains + domain + 1], so no value is ever written twice and the
    register keeps moving.  The cursor also measures what the declared
    mix promises: the reads actually issued ([reads], counted where
    each read is called), writes
    whose value failed to exceed the domain's previous one
    ([replays]), and batch-end reads that went backwards
    ([decreases]). *)

val write_max : int
val increment : int
val read_max : int
val read_count : int
(** Operation kinds, as stored in a schedule. *)

val cycle : int
(** Schedule length (a power of two). *)

val schedule : seed:int -> read_share:float -> domain:int -> int array
(** The domain's operation kinds; the same arguments give the same
    array. *)

type cursor = {
  domain : int;
  domains : int;
  sched : int array;
  mutable pos : int;         (** operations issued *)
  mutable reads : int;       (** [read_max] and counter [read] calls issued *)
  mutable writes : int;      (** [write_max] calls issued *)
  mutable increments : int;  (** [increment] calls issued *)
  mutable last_value : int;  (** the last value this domain wrote *)
  mutable replays : int;     (** writes not above [last_value] *)
  mutable max_sample : int;  (** last [read_max] of the latest batch *)
  mutable count_sample : int;  (** last counter [read] of the latest batch *)
  mutable decreases : int;   (** batches whose sampled reads went down *)
}

val cursor : seed:int -> read_share:float -> domains:int -> domain:int -> cursor

val value : cursor -> int -> int
(** [value c k]: the value of the domain's [k]-th write (from 0). *)

val run_batch :
  cursor -> Maxreg.Max_register.instance -> Counters.Counter.instance ->
  int -> unit
(** Issue the cursor's next [n] operations through the instance records,
    as a library user calls them, with [pid = domain]. *)

val max_written : cursor array -> int
(** The largest value any cursor has written (0 if none). *)

(** {1 Latency pass} *)

val run_batch_timed :
  cursor -> Maxreg.Max_register.instance -> Counters.Counter.instance ->
  updates:Obs.Histogram.t -> reads:Obs.Histogram.t -> int -> unit
(** {!run_batch}, timing each operation with the monotonic clock and
    recording its latency into [updates] or [reads] by kind.  The clock
    pair is part of every sample, so a read's latency includes the clock
    floor. *)
