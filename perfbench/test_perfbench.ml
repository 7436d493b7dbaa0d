(* The benchmark's own arithmetic and workload generator, timing-free. *)

open Perfbench

let feq = Alcotest.float 1e-9

(* {1 Statistics} *)

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "single" 7. (Stats.median [| 7. |]);
  let xs = [| 3.; 1.; 2. |] in
  ignore (Stats.median xs);
  Alcotest.(check (array (float 0.))) "argument untouched" [| 3.; 1.; 2. |] xs;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty")
    (fun () -> ignore (Stats.median [||]))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (Array.map float_of_int xs) in
  let check name (a, b, c) xs =
    let x, y, z = q xs in
    Alcotest.check feq (name ^ " q1") a x;
    Alcotest.check feq (name ^ " q2") b y;
    Alcotest.check feq (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |];
  check "1..4" (1.25, 2.5, 3.75) [| 4; 3; 2; 1 |];
  check "two values" (0.5, 2.0, 3.5) [| 3; 1 |];
  check "five values" (1.5, 3.0, 4.5) [| 5; 1; 4; 2; 3 |];
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check_raises "one value"
    (Invalid_argument "Stats.quartiles: need at least two values") (fun () ->
      ignore (Stats.quartiles [| 1. |]))

let test_sample_count_rule () =
  Alcotest.(check bool) "p99 on 1000" true (Stats.supports ~samples:1000 99.);
  Alcotest.(check bool) "p99 on 999" false (Stats.supports ~samples:999 99.);
  Alcotest.(check bool) "p50 on 20" true (Stats.supports ~samples:20 50.);
  Alcotest.(check bool) "p50 on 19" false (Stats.supports ~samples:19 50.);
  Alcotest.(check bool) "p100 never" false (Stats.supports ~samples:1_000_000 100.);
  Alcotest.(check bool) "p99.99 on 10^5" true (Stats.supports ~samples:100_000 99.99)

(* Percentiles come from Obs.Histogram, refused when the sample count
   cannot support them. *)
let test_percentile () =
  let h = Obs.Histogram.create () in
  for v = 1 to 1000 do Obs.Histogram.record h v done;
  Alcotest.check feq "p99 is the histogram's"
    (Obs.Histogram.percentile h 99.) (Stats.percentile h 99.);
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  for v = 1 to 1000 do Obs.Histogram.record (if v land 1 = 0 then a else b) v done;
  let m = Stats.merge [| a; b |] in
  Alcotest.(check int) "merged count" 1000 (Obs.Histogram.count m);
  Alcotest.check feq "merged p50 is the pooled one"
    (Obs.Histogram.percentile h 50.) (Stats.percentile m 50.);
  let small = Obs.Histogram.create () in
  for v = 1 to 999 do Obs.Histogram.record small v done;
  Alcotest.check_raises "unsupported"
    (Invalid_argument "Stats.percentile: p99 needs more than 999 samples")
    (fun () -> ignore (Stats.percentile small 99.));
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: p50 needs more than 0 samples")
    (fun () -> ignore (Stats.percentile (Obs.Histogram.create ()) 50.))

let test_interquartile_mean () =
  Alcotest.check feq "middle half of eight" 4.5
    (Stats.interquartile_mean [| 8.; 1.; 100.; 4.; 5.; 3.; 6.; -50. |]);
  Alcotest.check feq "three values keep all" 2. (Stats.interquartile_mean [| 3.; 1.; 2. |]);
  Alcotest.check feq "single" 7. (Stats.interquartile_mean [| 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.interquartile_mean: empty")
    (fun () -> ignore (Stats.interquartile_mean [||]))

let test_error_rate () =
  Alcotest.check feq "clean" 0. (Stats.error_rate ~failed:0 ~attempted:10);
  Alcotest.check feq "some" 0.25 (Stats.error_rate ~failed:1 ~attempted:4);
  Alcotest.check feq "all failed" 1. (Stats.error_rate ~failed:7 ~attempted:7);
  Alcotest.check feq "empty is not clean" 1.
    (Stats.error_rate ~failed:0 ~attempted:0);
  let bad = Invalid_argument "Stats.error_rate: failed must lie in [0, attempted]" in
  Alcotest.check_raises "more failed than attempted" bad (fun () ->
      ignore (Stats.error_rate ~failed:2 ~attempted:1));
  Alcotest.check_raises "negative" bad (fun () ->
      ignore (Stats.error_rate ~failed:(-1) ~attempted:1))

(* {1 Generator} *)

let reads_in s =
  Array.fold_left
    (fun acc k -> if k = Gen.read_max || k = Gen.read_count then acc + 1 else acc)
    0 s

let objects () =
  ( Option.get
      (Harness.Instances.maxreg_native_fast ~n:4 ~bound:max_int
         Harness.Instances.Algorithm_a),
    Option.get
      (Harness.Instances.counter_native_fast ~n:4 ~bound:max_int
         Harness.Instances.Farray_counter) )

let test_schedule () =
  let s = Gen.schedule ~seed:7 ~read_share:0.1 ~domain:0 in
  Alcotest.(check (array int)) "same seed, same stream" s
    (Gen.schedule ~seed:7 ~read_share:0.1 ~domain:0);
  Alcotest.(check bool) "another seed, another stream" false
    (s = Gen.schedule ~seed:8 ~read_share:0.1 ~domain:0);
  Alcotest.(check bool) "domains differ" false
    (s = Gen.schedule ~seed:7 ~read_share:0.1 ~domain:1);
  Alcotest.(check int) "exact read count" 410 (reads_in s);
  Alcotest.(check int) "99%" 4055
    (reads_in (Gen.schedule ~seed:7 ~read_share:0.99 ~domain:0));
  let count k = Array.fold_left (fun acc x -> if x = k then acc + 1 else acc) 0 s in
  Alcotest.(check int) "updates split evenly" (count Gen.write_max) (count Gen.increment);
  let mr, ctr = objects () in
  let c = Gen.cursor ~seed:7 ~read_share:0.1 ~domains:2 ~domain:0 in
  Gen.run_batch c mr ctr ((3 * Gen.cycle) + 100);
  Alcotest.(check int) "reads issued over three cycles and a bit"
    ((3 * 410) + reads_in (Array.sub s 0 100))
    c.Gen.reads

(* Two trials over the same objects, as the bench runs them: the second
   continues each domain's cursor, so every write is above the domain's
   previous one and the register keeps moving. *)
let test_trials_continue () =
  let mr, ctr = objects () in
  let cursors =
    Array.init 2 (fun domain ->
        Gen.cursor ~seed:3 ~read_share:0.1 ~domains:2 ~domain)
  in
  let trial () = Array.iter (fun c -> Gen.run_batch c mr ctr 1000) cursors in
  trial ();
  let after_first = Array.map (fun c -> c.Gen.writes) cursors in
  let max_first = mr.read_max () in
  trial ();
  Array.iteri
    (fun d c ->
      Alcotest.(check int) "positions continue" 2000 c.Gen.pos;
      Alcotest.(check bool) "writes continue" true (c.Gen.writes > after_first.(d));
      Alcotest.(check int) "no replays" 0 c.Gen.replays;
      Alcotest.(check int) "reads never decreased" 0 c.Gen.decreases)
    cursors;
  Alcotest.(check bool) "second trial raised the max" true (mr.read_max () > max_first);
  Alcotest.(check int) "max is the largest value written"
    (Gen.max_written cursors) (mr.read_max ());
  Alcotest.(check int) "counter counts the increments"
    (Array.fold_left (fun acc c -> acc + c.Gen.increments) 0 cursors)
    (ctr.read ());
  let a = Gen.cursor ~seed:3 ~read_share:0.1 ~domains:2 ~domain:0 in
  let b = Gen.cursor ~seed:3 ~read_share:0.1 ~domains:2 ~domain:0 in
  let mr2, ctr2 = objects () in
  Gen.run_batch a mr2 ctr2 2000;
  let mr3, ctr3 = objects () in
  Gen.run_batch b mr3 ctr3 1000;
  Gen.run_batch b mr3 ctr3 1000;
  Alcotest.(check int) "split or not, the same values" a.Gen.last_value b.Gen.last_value

(* A cursor restarted between trials (the drift the persistent cursor
   rules out) is caught as replays. *)
let test_replays_detected () =
  let mr, ctr = objects () in
  let c = Gen.cursor ~seed:3 ~read_share:0.1 ~domains:2 ~domain:0 in
  Gen.run_batch c mr ctr 1000;
  let writes = c.Gen.writes in
  c.Gen.writes <- 0;
  Gen.run_batch c mr ctr 1000;
  Alcotest.(check bool) "replays counted" true (c.Gen.replays > 0);
  Alcotest.(check bool) "no more than the rewound writes" true (c.Gen.replays <= writes)

let test_timed_batch () =
  let mr, ctr = objects () in
  let c = Gen.cursor ~seed:5 ~read_share:0.5 ~domains:1 ~domain:0 in
  let updates = Obs.Histogram.create () and reads = Obs.Histogram.create () in
  Gen.run_batch_timed c mr ctr ~updates ~reads 300;
  let s = Gen.schedule ~seed:5 ~read_share:0.5 ~domain:0 in
  let r = reads_in (Array.sub s 0 300) in
  Alcotest.(check int) "reads counted" r c.Gen.reads;
  Alcotest.(check int) "a read sample per read" r (Obs.Histogram.count reads);
  Alcotest.(check int) "an update sample per update" (300 - r)
    (Obs.Histogram.count updates);
  Alcotest.(check int) "values follow the cursor" (Gen.max_written [| c |]) (mr.read_max ())

(* {1 Spans} *)

let test_spans () =
  let parent = Spans.intern "test.parent" and child = Spans.intern "test.child" in
  let t = Spans.create ~tid:0 in
  let p = Spans.open_ t ~name:parent ~parent:Spans.none in
  let c = Spans.open_ t ~name:child ~parent:p in
  Spans.close t c ~items:3;
  Spans.close t p ~items:1;
  Spans.record t ~name:child ~t0:100 ~t1:150 ~items:2;
  let tp = Spans.totals [ t ] parent and tc = Spans.totals [ t ] child in
  Alcotest.(check int) "child spans" 2 tc.spans;
  Alcotest.(check int) "child items" 5 tc.items;
  Alcotest.(check int) "child has no children" tc.total_ns tc.self_ns;
  Alcotest.(check int) "parent self = total - nested child"
    (tp.total_ns - (tc.total_ns - 50)) tp.self_ns;
  let doc =
    Obs.Json_out.parse
      (Obs.Json_out.to_string (Spans.chrome_json ~manifest:Obs.Json_out.Null [ t ]))
  in
  let events =
    Option.get (Option.bind (Obs.Json_out.member "traceEvents" doc) Obs.Json_out.as_list)
  in
  let phase e = Option.bind (Obs.Json_out.member "ph" e) Obs.Json_out.as_string in
  Alcotest.(check int) "three complete slices" 3
    (List.length (List.filter (fun e -> phase e = Some "X") events));
  Alcotest.(check int) "one thread name" 1
    (List.length (List.filter (fun e -> phase e = Some "M") events))

(* Totals cover every span; the trace keeps the first thousand of a name. *)
let test_spans_kept () =
  let busy = Spans.intern "test.busy" in
  let t = Spans.create ~tid:1 in
  for i = 1 to 1500 do
    Spans.record t ~name:busy ~t0:(10 * i) ~t1:((10 * i) + 4) ~items:2
  done;
  let tb = Spans.totals [ t ] busy in
  Alcotest.(check int) "all spans counted" 1500 tb.spans;
  Alcotest.(check int) "all time counted" 6000 tb.total_ns;
  Alcotest.check feq "ns per item" 2. (Spans.ns_per_item [ t ] busy);
  let doc = Spans.chrome_json ~manifest:Obs.Json_out.Null [ t ] in
  let events =
    Option.get (Option.bind (Obs.Json_out.member "traceEvents" doc) Obs.Json_out.as_list)
  in
  Alcotest.(check int) "first thousand kept, plus the thread name" 1001
    (List.length events)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles (Python's exclusive method)" `Quick
            test_quartiles;
          Alcotest.test_case "percentile needs ten samples beyond" `Quick
            test_sample_count_rule;
          Alcotest.test_case "histogram percentiles" `Quick test_percentile;
          Alcotest.test_case "interquartile mean" `Quick test_interquartile_mean;
          Alcotest.test_case "error rate" `Quick test_error_rate ] );
      ( "generator",
        [ Alcotest.test_case "seeded schedules" `Quick test_schedule;
          Alcotest.test_case "trials continue the cursors" `Quick
            test_trials_continue;
          Alcotest.test_case "a rewound cursor shows as replays" `Quick
            test_replays_detected;
          Alcotest.test_case "timed batch samples every operation" `Quick
            test_timed_batch ] );
      ( "spans",
        [ Alcotest.test_case "self time and export" `Quick test_spans;
          Alcotest.test_case "totals cover spans the trace drops" `Quick
            test_spans_kept ] )
    ]
