(** Exhaustive schedule exploration (bounded model checking): enumerate
    {e every} interleaving of a small set of deterministic processes and
    hand the resulting traces to a callback.  Affordable for 2–4 processes
    with a few steps each — the regime where exhaustiveness beats random
    testing. *)

type stats = {
  explored : int;      (** complete executions visited *)
  truncated : bool;    (** a limit stopped the enumeration *)
}

val run :
  ?max_schedules:int ->
  ?max_events:int ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  stats
(** [run session ~n ~make_body ~on_complete ()] explores all maximal
    schedules of processes [0..n-1] depth-first.  A node's first child
    continues the live run; a later sibling re-executes its prefix (fresh
    bodies, store reset).  [on_complete] returns [false] to abort early
    (e.g. when a counterexample is found); every exit leaves the session
    idle.  Handles processes whose step count depends on the schedule
    (retry loops). *)

val walk :
  max_schedules:int ->
  max_events:int ->
  start:(int list -> 'run) ->
  branches:('run -> int list) ->
  advance:('run -> int -> unit) ->
  sched:('run -> Scheduler.t) ->
  on_complete:(Trace.t -> bool) ->
  stats
(** The depth-first walk behind {!run} and {!Faults.explore}, over runs
    of any type.  [start rev_prefix] starts a fresh run positioned after
    the reversed prefix; [branches r] lists the pids to try next, in
    order ([[]] when the execution is complete); [advance r pid] steps
    [pid]; [sched r] is the underlying scheduler run.  The first branch
    continues the live run, later ones [start] afresh, and every exit
    finishes the run it holds. *)

val run_interleavings :
  ?max_schedules:int ->
  Session.t ->
  make_body:(int -> unit -> unit) ->
  counts:int array ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  stats
(** Exhaustive exploration for processes whose event counts are
    schedule-independent (all the write-once tree algorithms here):
    {!run}'s walk over exactly the interleavings of [counts], with no
    event bound.  Raises [Invalid_argument] (leaving the session idle) as
    soon as a process deviates from its count. *)

val solo_counts :
  Session.t -> n:int -> make_body:(int -> unit -> unit) -> int array
(** Per-process event counts measured by running each process solo, in pid
    order (suitable as [counts] for {!run_interleavings} when counts are
    schedule-independent). *)
