open Memsim

let n = 3
let reads = ref 0
let ops = ref 0
let reads_share = 1. /. 3.
let read_calls () = (!reads, !ops)

type program = {
  name : string;
  build :
    Session.t -> (module Smem.Memory_intf.MEMORY) ->
    (int -> unit -> unit) * (Trace.t -> bool);
}

let counter_prog =
  { name = "farray i+i+r";
    build =
      (fun session mem ->
        let c =
          Harness.Annotate.counter session
            (Harness.Instances.counter_over mem ~n ~bound:8
               Harness.Instances.Farray_counter)
        in
        ( (fun pid () ->
            incr ops;
            if pid < 2 then c.increment ~pid
            else begin
              incr reads;
              ignore (c.read ())
            end),
          Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n ))
  }

let maxreg_prog =
  { name = "algorithm-a w+w+r";
    build =
      (fun session mem ->
        let r =
          Harness.Annotate.max_register session
            (Harness.Instances.maxreg_over mem ~n ~bound:4
               Harness.Instances.Algorithm_a)
        in
        ( (fun pid () ->
            incr ops;
            match pid with
            | 0 -> r.write_max ~pid 1
            | 1 -> r.write_max ~pid 3
            | _ ->
              incr reads;
              ignore (r.read_max ())),
          Linearize.Checker.check_trace (module Linearize.Spec.Max_register)
            ~n ))
  }

let programs = [ counter_prog; maxreg_prog ]

(* [Harness.Instances.counter_sim session] is [counter_over] applied to
   [Smem.Sim_memory.bind session]; building through [_over] lets the
   counting pass reuse the same program text. *)
let instantiate ?(count = false) prog =
  let session = Session.create () in
  let mem = Smem.Sim_memory.bind session in
  let mem, counts =
    if count then
      let m, c = Smem.Counting_memory.wrap mem in
      (m, Some c)
    else (mem, None)
  in
  let body, check = prog.build session mem in
  (session, body, check, counts)

let setup () = List.iter (fun p -> ignore (instantiate p)) programs

type round = {
  executions : int;
  sleep_blocked : int;
  failed : int;
  latencies : Obs.Histogram.t;
  elapsed_ns : int;
  minor_words : float;
  per_program : (string * int) list;
}

let dpor_run = Spans.intern "dpor.run"
let check_span = Spans.intern "linearize.check"

let round ?spans () =
  let start = Clock.now_ns () in
  let latencies = Obs.Histogram.create () in
  let executions = ref 0 and sleep_blocked = ref 0 and failed = ref 0 in
  let per_program = ref [] in
  let w0 = Gc.minor_words () in
  let last = ref 0 in
  List.iter
    (fun prog ->
      let session, make_body, check, _ = instantiate prog in
      let run_id =
        match spans with
        | Some s -> Spans.open_ s ~name:dpor_run ~parent:Spans.none
        | None -> Spans.none
      in
      let on_complete trace =
        let ok =
          match spans with
          | Some s ->
            let id = Spans.open_ s ~name:check_span ~parent:run_id in
            let ok = check trace in
            Spans.close s id ~items:1;
            ok
          | None -> check trace
        in
        if not ok then incr failed;
        let t = Clock.now_ns () in
        Obs.Histogram.record latencies (t - !last);
        last := t;
        incr executions;
        true
      in
      let before = !executions in
      last := Clock.now_ns ();
      let stats = Dpor.run session ~n ~make_body ~on_complete () in
      (match spans with
       | Some s -> Spans.close s run_id ~items:(!executions - before)
       | None -> ());
      if stats.Dpor.truncated then incr failed;
      sleep_blocked := !sleep_blocked + stats.Dpor.sleep_blocked;
      per_program := (prog.name, !executions - before) :: !per_program)
    programs;
  { executions = !executions; sleep_blocked = !sleep_blocked; failed = !failed;
    latencies; elapsed_ns = Clock.now_ns () - start;
    minor_words = Gc.minor_words () -. w0; per_program = List.rev !per_program }

let memsim_events () =
  List.fold_left
    (fun acc prog ->
      let session, make_body, _, counts = instantiate ~count:true prog in
      ignore
        (Dpor.run session ~n ~make_body ~on_complete:(fun _ -> true) ());
      acc + Smem.Counting_memory.total (Option.get counts))
    0 programs
