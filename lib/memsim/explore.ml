(* Exhaustive schedule exploration (bounded model checking).

   Enumerate every interleaving of a small set of processes and hand each
   complete execution to a callback.  Continuations are one-shot, so a
   prefix cannot be forked.  The depth-first walk keeps one live run
   instead: a node's first child continues it by one step, and only a
   later sibling re-executes its prefix from the initial configuration
   (processes are deterministic, so the prefix work is identical).  That
   is one replay per complete schedule rather than one per visited node:
   O(#schedules * length) events, affordable exactly in the regime where
   exhaustiveness is interesting (2-4 processes, a few steps each). *)

type stats = { explored : int; truncated : bool }

let walk ~max_schedules ~max_events ~start ~branches ~advance ~sched
    ~on_complete =
  let explored = ref 0 in
  let truncated = ref false in
  let continue = ref true in
  (* [live] is a run already positioned after [rev_prefix] (the schedule
     so far, newest first), or [None] when this node must [start] one. *)
  let rec dfs live rev_prefix len =
    if (not !continue) || !explored >= max_schedules || len > max_events
    then begin
      Option.iter (fun r -> ignore (Scheduler.finish (sched r) : Trace.t)) live;
      if !continue then truncated := true
    end
    else begin
      let r = match live with Some r -> r | None -> start rev_prefix in
      match branches r with
      | [] ->
        let trace = Scheduler.finish (sched r) in
        incr explored;
        if not (on_complete trace) then continue := false
      | first :: rest ->
        advance r first;
        dfs (Some r) (first :: rev_prefix) (len + 1);
        List.iter (fun pid -> dfs None (pid :: rev_prefix) (len + 1)) rest
    end
  in
  dfs None [] 0;
  { explored = !explored; truncated = !truncated }

let start session ~n ~make_body rev_prefix =
  Replay.replay session ~n ~make_body ~schedule:(List.rev rev_prefix) ()

let advance sched pid = ignore (Scheduler.step sched pid : Event.t)

let run ?(max_schedules = 1_000_000) ?(max_events = 60) session ~n ~make_body
    ~on_complete () =
  walk ~max_schedules ~max_events ~on_complete ~sched:Fun.id
    ~start:(start session ~n ~make_body) ~branches:Scheduler.active_pids
    ~advance

(* When every process issues a schedule-independent number of events (true
   of all write-once tree algorithms here — CAS failures do not change step
   counts), complete schedules are exactly the interleavings of the given
   per-process counts: the same walk as [run], checking at every node that
   the active processes are exactly those with events left. *)
let run_interleavings ?(max_schedules = 1_000_000) session ~make_body ~counts
    ~on_complete () =
  let n = Array.length counts in
  let branches sched =
    let rec deviates pid =
      pid < n
      && (Scheduler.is_active sched pid
          <> (Scheduler.steps_of sched pid < counts.(pid))
         || deviates (pid + 1))
    in
    if deviates 0 then begin
      ignore (Scheduler.finish sched : Trace.t);
      invalid_arg
        "Explore.run_interleavings: step counts are schedule-dependent"
    end;
    Scheduler.active_pids sched
  in
  walk ~max_schedules ~max_events:(Array.fold_left ( + ) 0 counts)
    ~on_complete ~sched:Fun.id ~start:(start session ~n ~make_body) ~branches
    ~advance

(* Solo step counts, for run_interleavings. *)
let solo_counts session ~n ~make_body =
  let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
  let counts =
    Array.init n (fun pid ->
        Scheduler.run_solo sched pid;
        Scheduler.steps_of sched pid)
  in
  ignore (Scheduler.finish sched : Trace.t);
  counts
