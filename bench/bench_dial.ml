(* The tradeoff-dial sweep behind bin/bench.exe --dial: the
   {!Counters.Dial_counter} family measured at every dial point, in two
   independent sections.

   Steps section (exact, deterministic): each dial's counter is built
   over a Memsim session and its solo shared-memory step counts are read
   off {!Memsim.Session.direct_steps} — a read costs Θ(f) block-root
   collections, an increment O(log(N/f)) in-block propagation.  These
   are the numbers Theorem 1 trades against each other; the table places
   them next to the C1-certified envelope so the measured frontier and
   the statically certified one can be compared line by line (the
   envelope columns are injected by the caller — the lint library knows
   the budgets, this module only measures).

   Throughput section (noisy, honest): {!Bench_native}'s dial targets —
   the unboxed twin of each dial point, called directly from the fused
   batch loop — swept over domain counts and read shares by the same
   cell runner, trial protocol and latency/metered passes as the backend
   sweep.  The expected picture is the paper's frontier: read-heavy
   mixes favour small f (cheap reads), update-heavy mixes favour large f
   (shallow propagation), with the crossover sliding in the read
   share. *)

(* {1 Steps section} *)

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;              (* block count at this n *)
  read_steps : int;
  inc_steps : int;      (* max over all pids (tail block may be shallower) *)
}

let steps_rows ~n =
  List.map
    (fun dial ->
      let session = Memsim.Session.create () in
      let c = Harness.Instances.counter_dial_sim session ~n dial in
      (* warm the structure so the steps measured are steady-state *)
      c.Counters.Counter.increment ~pid:0;
      Memsim.Session.reset_steps session;
      ignore (c.Counters.Counter.read () : int);
      let read_steps = Memsim.Session.direct_steps session in
      let inc_steps = ref 0 in
      for pid = 0 to n - 1 do
        Memsim.Session.reset_steps session;
        c.Counters.Counter.increment ~pid;
        inc_steps := max !inc_steps (Memsim.Session.direct_steps session)
      done;
      { dial; f = Treeprim.Dial.width ~n dial; read_steps;
        inc_steps = !inc_steps })
    Treeprim.Dial.all

(* [envelope dial] returns certified (read, increment) step ceilings to
   print alongside, when the caller has them (bin/bench.exe injects
   {!Lint.Budgets} + {!Lint.Summary.envelope}; benchkit itself stays
   free of the lint dependency). *)
let steps_table ?envelope ~n rows =
  let header =
    [ "dial"; "f"; "read steps"; "inc steps" ]
    @ (match envelope with
       | None -> []
       | Some _ -> [ "read env"; "inc env" ])
  in
  let body =
    List.map
      (fun r ->
        [ Treeprim.Dial.name r.dial;
          string_of_int r.f;
          string_of_int r.read_steps;
          string_of_int r.inc_steps ]
        @ (match envelope with
           | None -> []
           | Some env ->
             let re, ie = env r.dial in
             [ string_of_int re; string_of_int ie ]))
      rows
  in
  Harness.Tables.render
    ~title:(Printf.sprintf "solo steps, N = %d (Memsim, exact)" n)
    ~header body

(* {1 JSON trajectory} *)

let to_json ~cfg ~steps rows =
  let open Obs.Json_out in
  let step s =
    Obj
      [ ("dial", Str (Treeprim.Dial.name s.dial));
        ("f", Int s.f);
        ("read_steps", Int s.read_steps);
        ("inc_steps", Int s.inc_steps) ]
  in
  Bench_native.to_json ~schema:"bench-dial/v2"
    ~sections:[ ("steps", List (List.map step steps)) ]
    ~cfg rows
