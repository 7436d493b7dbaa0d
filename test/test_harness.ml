(* Tests for the harness utilities: the counting-memory wrapper, step
   measurement, statistics, and table rendering. *)

open Memsim

(* {1 Counting memory} *)

let test_counting_memory () =
  let counting, counts =
    Smem.Counting_memory.wrap (module Smem.Atomic_memory)
  in
  let module M = (val counting) in
  let r = M.make (Simval.Int 0) in
  ignore (M.read r);
  ignore (M.read r);
  M.write r (Simval.Int 5);
  ignore (M.cas r ~expected:(Simval.Int 5) ~desired:(Simval.Int 6));
  ignore (M.cas r ~expected:(Simval.Int 99) ~desired:(Simval.Int 7));
  Alcotest.(check int) "reads" 2 counts.Smem.Counting_memory.reads;
  Alcotest.(check int) "writes" 1 counts.Smem.Counting_memory.writes;
  Alcotest.(check int) "cas" 2 counts.Smem.Counting_memory.cas;
  Alcotest.(check int) "total" 5 (Smem.Counting_memory.total counts);
  Smem.Counting_memory.reset counts;
  Alcotest.(check int) "reset" 0 (Smem.Counting_memory.total counts)

let test_counting_wrapper_is_isolated () =
  let m1, c1 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let m2, c2 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let module M1 = (val m1) in
  let module M2 = (val m2) in
  let r1 = M1.make (Simval.Int 0) and r2 = M2.make (Simval.Int 0) in
  ignore (M1.read r1);
  ignore (M1.read r1);
  ignore (M2.read r2);
  Alcotest.(check int) "m1 counts" 2 c1.Smem.Counting_memory.reads;
  Alcotest.(check int) "m2 counts" 1 c2.Smem.Counting_memory.reads

(* The counting wrapper agrees with the simulator's own step accounting. *)
let test_counting_agrees_with_sim () =
  let session = Session.create () in
  let counting, counts = Smem.Counting_memory.wrap (Smem.Sim_memory.bind session) in
  let module M = (val counting) in
  let module A = Maxreg.Algorithm_a.Make (M) in
  let reg = A.create ~n:16 () in
  Session.reset_steps session;
  Smem.Counting_memory.reset counts;
  A.write_max reg ~pid:0 7;
  ignore (A.read_max reg);
  Alcotest.(check int) "same total"
    (Session.direct_steps session)
    (Smem.Counting_memory.total counts)

(* {1 Measurement} *)

let test_measure_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let steps =
    Harness.Measure.steps session (fun () ->
        ignore (Session.mem_op session a Event.Read);
        ignore (Session.mem_op session a (Event.Write (Simval.Int 1))))
  in
  Alcotest.(check int) "two events" 2 steps

let test_measure_max_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let worst =
    Harness.Measure.max_steps session ~trials:5 (fun i ->
        for _ = 0 to i do
          ignore (Session.mem_op session a Event.Read)
        done)
  in
  Alcotest.(check int) "worst trial issues 5 reads" 5 worst

let test_measure_powers () =
  Alcotest.(check (list int)) "powers" [ 2; 4; 8; 16 ]
    (Harness.Measure.powers ~start:2 ~stop:16);
  Alcotest.(check (list int)) "stop not power" [ 3; 6; 12 ]
    (Harness.Measure.powers ~start:3 ~stop:13)

(* {1 Statistics} *)

let test_stats () =
  let s = Harness.Stats.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "count" 4 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Harness.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Harness.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.Harness.Stats.max;
  (* sample stddev (Bessel-corrected): sqrt(5/3), not the population
     sqrt(5/4) — benchmark trials are a sample, not the population *)
  Alcotest.(check (float 1e-6)) "stddev" 1.290994449 s.Harness.Stats.stddev

let test_stats_single () =
  let s = Harness.Stats.summarize [ 7. ] in
  Alcotest.(check int) "count" 1 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "stddev defined (0) for n=1" 0.
    s.Harness.Stats.stddev

let test_stats_empty () =
  let s = Harness.Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Harness.Stats.count;
  (* no infinite extremes leaking out of the fold's seed values *)
  Alcotest.(check (float 0.)) "min" 0. s.Harness.Stats.min;
  Alcotest.(check (float 0.)) "max" 0. s.Harness.Stats.max

let test_stats_nonfinite_dropped () =
  let s = Harness.Stats.summarize [ 1.; nan; 3.; infinity ] in
  Alcotest.(check int) "count" 2 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2. s.Harness.Stats.mean;
  Alcotest.(check (float 1e-9)) "max" 3. s.Harness.Stats.max;
  let s = Harness.Stats.summarize [ nan ] in
  Alcotest.(check int) "all dropped" 0 s.Harness.Stats.count;
  Alcotest.(check (float 0.)) "empty min" 0. s.Harness.Stats.min

let test_stats_ints () =
  let s = Harness.Stats.summarize_ints [ 10; 20 ] in
  Alcotest.(check (float 1e-9)) "mean" 15. s.Harness.Stats.mean

(* {1 Throughput window arithmetic}

   Pin the elapsed-time denominator against a scripted clock: the rate
   must be [operations / measured elapsed], never [operations /
   requested seconds].  (The old accounting divided by the request,
   counting spawn cost, startup skew and post-sleep operations into a
   window that didn't contain them.) *)

let scripted_clock times =
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    if k < Array.length times then times.(k) else times.(Array.length times - 1)

let test_run_alone_measured_window () =
  (* now() call sites: deadline base, t0, loop checks..., t1 after exit.
     Script one chunk (1024 ops at batch 1) and a window of 2.0 measured
     seconds: the rate must be 1024 / 2.0 regardless of the requested
     1.0s. *)
  let now = scripted_clock [| 0.0; 0.0; 0.5; 1.5; 2.0 |] in
  let ops = ref 0 in
  let rate =
    Harness.Throughput.run_alone ~now ~seconds:1.0 ~batch:1
      ~op:(fun _ _ -> incr ops) ()
  in
  Alcotest.(check int) "one chunk ran" 1024 !ops;
  Alcotest.(check (float 1e-9)) "ops / measured elapsed" 512. rate

let test_run_batched_measured_window () =
  (* multi-domain: now() is called exactly twice (t0 at the start
     barrier, t1 after stop is acknowledged); sleep is a no-op so the
     workers run only for the flag-flip interval.  Whatever they manage
     to do, the denominator must be the scripted t1 - t0 = 2.5s, and
     every counted call must lie inside the acknowledged window. *)
  let now = scripted_clock [| 10.0; 12.5 |] in
  let batch = 4 in
  let calls = Atomic.make 0 in
  (* "sleep" until the workers have demonstrably operated, so the window
     provably contains work without depending on real time *)
  let sleep _ =
    while Atomic.get calls < 8 do
      Domain.cpu_relax ()
    done
  in
  let rate =
    Harness.Throughput.run_batched ~now ~sleep ~domains:2 ~seconds:99.0 ~batch
      ~op:(fun _ _ -> Atomic.incr calls)
      ()
  in
  let counted = float_of_int (batch * Atomic.get calls) in
  Alcotest.(check bool) "workers made progress" true (counted > 0.);
  (* rate * elapsed recovers exactly the operations the workers counted *)
  Alcotest.(check (float 1e-6)) "ops / measured elapsed" counted (rate *. 2.5)

let test_run_batched_latency_alone_window () =
  (* domains = 1 latency path: [run_batched] over a clocking op, so the
     call sites and chunking are [run_alone]'s.  deadline base 0.0
     (-> 1.0), t0 = 0.0, one check at 0.5 (runs one chunk: 1024 / batch
     = 256 batched calls), exit check at 2.0, t1 = 2.0: 256 calls of 4
     operations over 2.0 measured seconds. *)
  let now = scripted_clock [| 0.0; 0.0; 0.5; 2.0; 2.0 |] in
  let hist = [| Obs.Histogram.create () |] in
  let calls = ref 0 in
  let rate =
    Harness.Throughput.run_batched_latency ~now ~domains:1 ~seconds:1.0
      ~batch:4 ~hist
      ~op:(fun _ _ -> incr calls)
      ()
  in
  Alcotest.(check int) "one chunk of batched calls" 256 !calls;
  Alcotest.(check int) "one latency sample per call" 256
    (Obs.Histogram.count hist.(0));
  Alcotest.(check (float 1e-9)) "ops / measured elapsed" 512. rate

let test_run_batched_latency_measured_window () =
  (* multi-domain latency path: the window clock is scripted (t0, t1 are
     the only now() calls), the per-op latencies still come from the
     monotonic clock.  The rate times the scripted elapsed must recover
     exactly the published operation count, and every batched call must
     have recorded one histogram sample. *)
  let now = scripted_clock [| 10.0; 12.5 |] in
  let batch = 4 in
  let calls = Atomic.make 0 in
  let sleep _ =
    while Atomic.get calls < 8 do
      Domain.cpu_relax ()
    done
  in
  let hist = Array.init 2 (fun _ -> Obs.Histogram.create ()) in
  let rate =
    Harness.Throughput.run_batched_latency ~now ~sleep ~domains:2
      ~seconds:99.0 ~batch ~hist
      ~op:(fun _ _ -> Atomic.incr calls)
      ()
  in
  let calls = Atomic.get calls in
  Alcotest.(check bool) "workers made progress" true (calls > 0);
  Alcotest.(check (float 1e-6)) "ops / measured elapsed"
    (float_of_int (batch * calls))
    (rate *. 2.5);
  Alcotest.(check int) "one latency sample per batched call" calls
    (Obs.Histogram.count hist.(0) + Obs.Histogram.count hist.(1))

(* {1 Tables} *)

let test_table_render () =
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 4 = "## T");
  (* all data rows present *)
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains out needle))
    [ "| a "; "| bb"; "| 333" ]

let test_table_ragged_rows () =
  (* short rows are padded, long headers accommodated *)
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "col" ] [ [ "x"; "extra" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

(* {1 Baseline diffing: asymmetric rows must be visible, not skipped} *)

module B = Benchkit.Baseline
module J = Obs.Json_out

let entry ~structure ~impl ?(backend = "native") ?(domains = 1)
    ?(read_pct = 50) ~mops () =
  { B.structure; impl; backend; domains; read_pct; mops }

let doc_of_entries ?(schema = "bench-native/v4") es =
  J.Obj
    [ ("schema", J.Str schema);
      ( "rows",
        J.List
          (List.map
             (fun (e : B.entry) ->
               J.Obj
                 [ ("structure", J.Str e.structure);
                   ("impl", J.Str e.impl);
                   ("backend", J.Str e.backend);
                   ("domains", J.Int e.domains);
                   ("read_pct", J.Int e.read_pct);
                   ("mops", J.Float e.mops) ])
             es) ) ]

(* regression: rows present on only one side used to vanish without a
   trace from [diff] — with fully disjoint row sets the report claimed
   "0/1 rows matched" and nothing else.  Both sides must now be
   reported, warn-only. *)
let test_baseline_disjoint_rows_warn () =
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:10. () ] in
  let cur = [ entry ~structure:"maxreg" ~impl:"cas" ~mops:20. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "no matches" 0 (List.length d.B.matched);
  Alcotest.(check int) "baseline-only counted" 1
    (List.length d.B.baseline_only);
  Alcotest.(check int) "current-only counted" 1 (List.length d.B.current_only);
  let a =
    B.analyze ~baseline:(doc_of_entries base) ~current:(doc_of_entries cur) ()
  in
  let mentions sub =
    List.exists
      (fun w ->
        let n = String.length w and m = String.length sub in
        let rec go i = i + m <= n && (String.sub w i m = sub || go (i + 1)) in
        go 0)
      a.B.warnings
  in
  Alcotest.(check bool) "baseline-only row warned about" true
    (mentions "only in the baseline");
  Alcotest.(check bool) "current-only row warned about" true
    (mentions "only in the current run");
  Alcotest.(check bool) "named in the warning" true
    (mentions "counter/farray" && mentions "maxreg/cas");
  Alcotest.(check int) "still warn-only: no regressions" 0
    (B.regression_count a)

let test_baseline_bad_mops_warn () =
  (* a matched key whose baseline mops is 0 or non-finite is unusable
     for a ratio, but must be flagged rather than skipped *)
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:0. () ] in
  let cur = [ entry ~structure:"counter" ~impl:"farray" ~mops:20. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "no matches" 0 (List.length d.B.matched);
  Alcotest.(check int) "bad baseline counted" 1 (List.length d.B.bad_baseline);
  Alcotest.(check int) "not misreported as baseline-only" 0
    (List.length d.B.baseline_only)

let test_baseline_symmetric_rows_quiet () =
  (* identical key sets must not trip the asymmetry warnings *)
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:10. () ] in
  let cur = [ entry ~structure:"counter" ~impl:"farray" ~mops:11. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "matched" 1 (List.length d.B.matched);
  Alcotest.(check int) "no baseline-only" 0 (List.length d.B.baseline_only);
  Alcotest.(check int) "no current-only" 0 (List.length d.B.current_only);
  Alcotest.(check int) "no bad baseline" 0 (List.length d.B.bad_baseline)

(* v5 trajectories diff without a schema warning, and a v4 baseline's
   adaptive column (a backend v5 no longer measures) surfaces as
   baseline-only rows rather than being dropped. *)
let test_baseline_v4_and_v5 () =
  let row backend =
    entry ~structure:"max-register" ~impl:"algorithm-a" ~backend ~mops:10. ()
  in
  let cur = doc_of_entries ~schema:"bench-native/v5" [ row "unboxed" ] in
  let a = B.analyze ~baseline:cur ~current:cur () in
  Alcotest.(check (list string)) "v5 baseline: no warnings" [] a.B.warnings;
  let v4 = doc_of_entries [ row "unboxed"; row "adaptive" ] in
  let a = B.analyze ~baseline:v4 ~current:cur () in
  Alcotest.(check int) "unboxed row matched" 1 (List.length a.B.deltas);
  Alcotest.(check (list string)) "only the adaptive row is warned about"
    [ "1 row(s) only in the baseline (cell no longer measured): \
       max-register/algorithm-a adaptive d=1 r=50%" ]
    a.B.warnings

(* {1 Bench stream: every trial writes fresh values}

   regression: the sweep's cells keep their structure across warmup and
   every trial, but [Throughput.run_batched] restarts [i0] at 0 on each
   call.  Values derived from [i0] alone replayed below the register's
   max from the second trial on, so later trials timed stale writes and
   the algorithm-a rows ramped across trials.  Two simulated trials on
   one cell, no clocks: the second trial's first batch must still raise
   the max. *)
let test_bench_trials_write_fresh_values () =
  let op, read_max =
    Benchkit.Bench_native.timed_cell
      (Benchkit.Bench_native.Maxreg Harness.Instances.Algorithm_a)
      ~backend:`Unboxed ~n:4 ~domains:1 ~read_pct:50
  in
  let batch = 64 in
  let trial batches =
    for b = 0 to batches - 1 do
      op 0 (b * batch)
    done
  in
  trial 16;
  let before = read_max () in
  Alcotest.(check bool) "first trial wrote" true (before > 0);
  trial 1;
  Alcotest.(check bool)
    (Printf.sprintf "second trial's first batch raises the max (%d before)"
       before)
    true
    (read_max () > before)

(* {1 Dial targets: the dial sweep runs through Bench_native}

   Each dial point is a [Bench_native] target.  At 0% reads on one
   domain every op is an increment, so [k] batches must read back
   exactly [k * 64] — the closure increments the counter it reads,
   through the value cursor, with no lost or extra operation. *)
let test_dial_cells_count_exactly () =
  List.iter
    (fun dial ->
      let op, read =
        Benchkit.Bench_native.timed_cell (Benchkit.Bench_native.Dial dial)
          ~backend:`Unboxed ~n:Benchkit.Bench_native.dial_n ~domains:1
          ~read_pct:0
      in
      let k = 5 in
      for b = 0 to k - 1 do
        op 0 (b * 64)
      done;
      Alcotest.(check int) (Treeprim.Dial.name dial) (k * 64) (read ()))
    Treeprim.Dial.all

(* regression: the dial sweep's own trial loop took the upper-middle
   trial as its median.  Rows now come from [Bench_native]'s sweep,
   whose median of two trials is their mean. *)
let test_dial_sweep_median_of_two () =
  let cfg =
    Benchkit.Bench_native.config ~quick:true ~dial:true ~max_domains:1
      ~seconds:0.005 ~trials:2 ~read_shares:[ 50 ] ()
  in
  let rows = Benchkit.Bench_native.sweep cfg in
  let doc = Benchkit.Bench_dial.to_json ~cfg ~steps:[] rows in
  let rows = Option.get (Option.bind (J.member "rows" doc) J.as_list) in
  Alcotest.(check int) "one row per dial point"
    (List.length Treeprim.Dial.all) (List.length rows);
  List.iter
    (fun r ->
      let get k = Option.get (J.member k r) in
      let mops = Option.get (J.as_float (get "mops")) in
      let trials = Option.get (J.as_list (get "trial_mops")) in
      match List.filter_map J.as_float trials with
      | [ a; b ] ->
        Alcotest.(check (float 1e-9))
          (Option.get (J.as_string (get "impl")))
          ((a +. b) /. 2.) mops
      | ts -> Alcotest.failf "expected two trials, got %d" (List.length ts))
    rows

let () =
  Alcotest.run "harness"
    [ ( "counting memory",
        [ Alcotest.test_case "counts primitives" `Quick test_counting_memory;
          Alcotest.test_case "isolated instances" `Quick test_counting_wrapper_is_isolated;
          Alcotest.test_case "agrees with sim" `Quick test_counting_agrees_with_sim ] );
      ( "measure",
        [ Alcotest.test_case "steps" `Quick test_measure_steps;
          Alcotest.test_case "max_steps" `Quick test_measure_max_steps;
          Alcotest.test_case "powers" `Quick test_measure_powers ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "non-finite dropped" `Quick
            test_stats_nonfinite_dropped;
          Alcotest.test_case "ints" `Quick test_stats_ints ] );
      ( "throughput window",
        [ Alcotest.test_case "run_alone measured elapsed" `Quick
            test_run_alone_measured_window;
          Alcotest.test_case "run_batched measured elapsed" `Quick
            test_run_batched_measured_window;
          Alcotest.test_case "latency runner (1 domain) measured elapsed"
            `Quick test_run_batched_latency_alone_window;
          Alcotest.test_case "latency runner measured elapsed" `Quick
            test_run_batched_latency_measured_window ] );
      ( "tables",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows ] );
      ( "baseline",
        [ Alcotest.test_case "disjoint rows warn both ways" `Quick
            test_baseline_disjoint_rows_warn;
          Alcotest.test_case "unusable baseline mops warns" `Quick
            test_baseline_bad_mops_warn;
          Alcotest.test_case "symmetric rows stay quiet" `Quick
            test_baseline_symmetric_rows_quiet;
          Alcotest.test_case "v4 and v5 baselines" `Quick
            test_baseline_v4_and_v5 ] );
      ( "bench stream",
        [ Alcotest.test_case "second trial writes fresh values" `Quick
            test_bench_trials_write_fresh_values ] );
      ( "dial targets",
        [ Alcotest.test_case "k batches at 0% reads count k*64" `Quick
            test_dial_cells_count_exactly;
          Alcotest.test_case "median of two trials is their mean" `Quick
            test_dial_sweep_median_of_two ] ) ]
