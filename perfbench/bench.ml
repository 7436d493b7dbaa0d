(* The repository benchmark.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads (all closed loops; the seed fixes every input):
   - update-heavy: 2 domains, 10% reads, updates split between Algorithm A
     write_max and f-array increment at n = 64.
   - read-heavy: the same objects, domains and value stream at 99% reads.
   - model-check: one thread; DPOR explores f-array i+i+r and Algorithm A
     w+w+r at n = 3 exhaustively and every execution is checked for
     linearizability.  Exercises Memsim, Dpor, the checker and the boxed
     Make (MEMORY) path; the native code does no work.

   Where a native workload's time goes is measured by the traced run, not
   assumed: workload.update_time_share is the updates' share of the time
   spent in structure calls at the workload's mix, driver.time_share the
   generator loop's share of an operation.

   With --trace 0 the last line reports the end-to-end metrics; with
   --trace 1 the per-layer ones, and the spans go to a Chrome trace file
   under perfbench/out/.  Lines before the last are for people: the run
   manifest, every figure by name and unit, and each correctness check. *)

open Perfbench

let end_to_end = [ "ops_per_s"; "op_p50_ns"; "op_p99_ns"; "setup_s" ]

let per_layer =
  [ "smem.load_ns"; "smem.cas_ns"; "smem.cas_shared_ns";
    "steps.maxreg_write"; "steps.maxreg_read"; "steps.counter_increment";
    "steps.counter_read"; "steps.update_cas";
    "treeprim.propagate_ns"; "treeprim.propagate_shared_ns";
    "treeprim.cas_fail_ratio"; "treeprim.refreshes_per_update";
    "maxreg.helps_per_write";
    "maxreg.write_ns"; "maxreg.read_ns"; "counters.increment_ns";
    "counters.read_ns"; "instances.call_overhead_ns";
    "driver.empty_op_ns"; "driver.clock_ns"; "driver.time_share";
    "workload.update_time_share";
    "dpor.explored"; "dpor.sleep_blocked"; "dpor.useful_ratio";
    "memsim.events"; "memsim.ns_per_event"; "linearize.check_us";
    "linearize.time_share";
    "workload.read_share"; "workload.value_replays"; "trace.overhead_pct";
    "alloc.minor_words_per_op" ]

type workload = Native of float | Model_check

let workloads =
  [ ("update-heavy", Native 0.10); ("read-heavy", Native 0.99);
    ("model-check", Model_check) ]

let config name w seconds =
  String.concat ";"
    ([ "workload=" ^ name; Printf.sprintf "seconds=%d" seconds;
       Printf.sprintf "cycle=%d" Gen.cycle ]
    @
    match w with
    | Native share ->
      [ Printf.sprintf "read_share=%g" share; Printf.sprintf "n=%d" Native.n;
        Printf.sprintf "domains=%d" Native.domains;
        "objects=maxreg_native_fast(algorithm-a),counter_native_fast(farray)" ]
    | Model_check ->
      [ "n=3"; "programs=farray(i+i+r),algorithm-a(w1+w3+r)";
        "objects=counter_sim,maxreg_sim" ])

(* {1 model-check} *)

let mc_failed rounds =
  (* every round explores the same classes: a count that moves is a
     failure of the exploration, not noise *)
  let first = (List.hd rounds).Mc.executions in
  List.fold_left
    (fun acc (r : Mc.round) ->
      acc + r.failed + if r.executions <> first then 1 else 0)
    0 rounds

let mc_checks rounds failed =
  let r = List.hd rounds in
  ( Printf.sprintf "every execution linearizable, no run truncated, %d classes every round"
      r.Mc.executions,
    failed = 0 )

(* A round's rate is its executions over its wall time, so everything
   the round spends (collections included) counts; the figure is the
   median over rounds. *)
let round_rate (r : Mc.round) =
  float_of_int r.executions /. (float_of_int r.elapsed_ns *. 1e-9)

let median_rate rounds = Stats.median (Array.of_list (List.map round_rate rounds))

(* Each round's percentile is a histogram bucket midpoint; their
   interquartile mean over the rounds resolves changes smaller than a
   bucket. *)
let mean_percentile rounds p =
  Stats.interquartile_mean
    (Array.of_list
       (List.map (fun (r : Mc.round) -> Stats.percentile r.latencies p) rounds))

let run_model_check ~seconds =
  Clock.warm Mc.setup;
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc setups =
    let setups = Clock.setup_samples Mc.setup ~samples:10 :: setups in
    let acc = Mc.round () :: acc in
    if List.length acc < 3 || Clock.now_ns () < deadline then go acc setups
    else (List.rev acc, setups)
  in
  let rounds, setups = go [] [] in
  let setup_s = Stats.median (Array.concat setups) in
  let rate = median_rate rounds in
  let execs = List.fold_left (fun acc (r : Mc.round) -> acc + r.executions) 0 rounds in
  let words = List.fold_left (fun acc (r : Mc.round) -> acc +. r.minor_words) 0. rounds in
  let failed = min execs (mc_failed rounds) in
  let first = List.hd rounds in
  let pooled = Stats.merge (Array.of_list (List.map (fun (r : Mc.round) -> r.latencies) rounds)) in
  let open Report in
  { attempted = execs; failed;
    metrics =
      [ metric "ops_per_s" "1/s" rate; metric "op_p50_ns" "ns" (mean_percentile rounds 50.);
        metric "op_p99_ns" "ns" (mean_percentile rounds 99.); metric "setup_s" "s" setup_s ];
    notes =
      [ metric "mc_execs_per_s" "1/s" rate;
        metric "mc_minor_words_per_exec" "words" (words /. float_of_int execs);
        metric "executions_per_round" "count" (float_of_int first.executions);
        metric "rounds" "count" (float_of_int (List.length rounds));
        metric "round_rate_spread" "ratio"
          (Stats.spread (Array.of_list (List.map round_rate rounds)));
        metric "exec_p99.9_ns" "ns" (Stats.percentile pooled 99.9);
        metric "error_rate" "ratio" (Stats.error_rate ~failed ~attempted:execs) ]
      @ List.map
          (fun (name, k) -> metric ("explored." ^ name) "count" (float_of_int k))
          first.per_program;
    checks = [ mc_checks rounds failed ] }

let run_model_check_traced ~seconds bufs =
  let deadline = Clock.now_ns () + int_of_float (0.6 *. seconds *. 1e9) in
  let rec go plain traced =
    let p = Mc.round () in
    let t = Mc.round ~spans:bufs.(0) () in
    let plain = p :: plain and traced = t :: traced in
    if List.length plain < 2 || Clock.now_ns () < deadline then go plain traced
    else (plain, traced)
  in
  let plain, traced = go [] [] in
  let rounds = plain @ traced in
  let execs = List.fold_left (fun acc (r : Mc.round) -> acc + r.executions) 0 rounds in
  let words = List.fold_left (fun acc (r : Mc.round) -> acc +. r.minor_words) 0. plain in
  let plain_execs = List.fold_left (fun acc (r : Mc.round) -> acc + r.executions) 0 plain in
  let reads, ops = Mc.read_calls () in
  let share = float_of_int reads /. float_of_int (max 1 ops) in
  let share_ok = Float.abs (share -. Mc.reads_share) <= 1e-9 in
  let failed = min execs (mc_failed rounds + if share_ok then 0 else 1) in
  let untraced = median_rate plain in
  let open Report in
  { attempted = execs; failed;
    metrics =
      Layers.model_check ~round:(List.hd traced) bufs.(0)
      @ [ metric "workload.read_share" "ratio" share;
          (* the programs write fixed values: nothing can be replayed *)
          metric "workload.value_replays" "count" 0.;
          metric "trace.overhead_pct" "%"
            (100. *. (untraced -. median_rate traced) /. untraced);
          metric "alloc.minor_words_per_op" "words" (words /. float_of_int plain_execs) ];
    notes = [ metric "mc_execs_per_s" "1/s" untraced ];
    checks =
      [ mc_checks rounds failed;
        (Printf.sprintf "read share %.5f = declared %.5f" share Mc.reads_share, share_ok) ] }

(* {1 Output} *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Obs.Json_out.float_repr v

let print_metric (m : Report.metric) =
  Printf.printf "  %-32s %16s %s\n" m.name (number m.value) m.unit

let result_json (r : Report.t) ~correct =
  let open Obs.Json_out in
  Obj
    [ ("correct", Bool correct); ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("metrics",
       Obj
         (List.map
            (fun (m : Report.metric) ->
              (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit) ]))
            r.metrics)) ]

(* The result must be one line: the last line of standard output. *)
let rec compact (j : Obs.Json_out.t) =
  let open Obs.Json_out in
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then float_repr f else "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map compact l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ compact v) kvs)
    ^ "}"

let out_dir = Filename.concat "perfbench" "out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "bench: unknown workload %S (expected %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let config = config workload w seconds in
  let manifest = Manifest.json ~workload ~seed ~seconds ~trace ~config in
  let secs = float_of_int seconds in
  let bufs = Array.init 2 (fun tid -> Spans.create ~tid) in
  let r =
    match (w, trace) with
    | Native read_share, false -> Native.run ~seed ~read_share ~seconds:secs
    | Native read_share, true ->
      let r = Native.run_traced ~seed ~read_share ~seconds:(0.5 *. secs) bufs in
      let layers =
        Layers.native ~seed ~read_share ~seconds:(0.5 *. secs) bufs
        @ Layers.model_check bufs.(0)
      in
      { r with metrics = layers @ r.metrics }
    | Model_check, false -> run_model_check ~seconds:secs
    | Model_check, true ->
      let r = run_model_check_traced ~seconds:(0.5 *. secs) bufs in
      let layers =
        Layers.native ~seed ~read_share:Mc.reads_share ~seconds:(0.5 *. secs) bufs
      in
      { r with metrics = layers @ r.metrics }
  in
  let expected = if trace then per_layer else end_to_end in
  let names = List.map (fun (m : Report.metric) -> m.name) r.metrics in
  if List.sort compare names <> List.sort compare expected then begin
    Printf.eprintf "bench: reported metrics differ from the declared ones\n";
    exit 1
  end;
  List.iter
    (fun (m : Report.metric) ->
      if not (Float.is_finite m.value) then begin
        Printf.eprintf "bench: %s was not measured (%g)\n" m.name m.value;
        exit 1
      end)
    r.metrics;
  let correct = r.failed = 0 && List.for_all snd r.checks in
  Printf.printf "manifest %s\n" (compact manifest);
  Printf.printf "%s, seed %d, %ds, trace %b\n" workload seed seconds trace;
  List.iter print_metric (List.sort (fun (a : Report.metric) b -> compare a.name b.name) r.metrics);
  print_endline " further figures:";
  List.iter print_metric r.notes;
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-6s %s\n" (if ok then "ok" else "FAILED") name)
    r.checks;
  Printf.printf "  attempted %d, failed %d, error_rate %s\n" r.attempted r.failed
    (number (Stats.error_rate ~failed:r.failed ~attempted:r.attempted));
  ensure_out_dir ();
  let stem = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace) in
  let open Obs.Json_out in
  to_file
    (Filename.concat out_dir (stem ^ ".json"))
    (Obj
       [ ("manifest", manifest); ("result", result_json r ~correct);
         ("notes",
          Obj (List.map (fun (m : Report.metric) -> (m.name, Float m.value)) r.notes));
         ("checks", List (List.map (fun (n, ok) -> Obj [ ("check", Str n); ("ok", Bool ok) ]) r.checks)) ]);
  if trace then begin
    let all = Array.to_list bufs in
    print_endline " self time by span (ms):";
    List.iter
      (fun id ->
        let t = Spans.totals all id in
        Printf.printf "  %-32s %10.3f of %10.3f, %d spans, %d items\n" (Spans.name id)
          (float_of_int t.self_ns /. 1e6) (float_of_int t.total_ns /. 1e6) t.spans t.items)
      (Spans.names_recorded all);
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    to_file path (Spans.chrome_json ~manifest all);
    Printf.printf "  trace written to %s\n" path
  end;
  print_endline (compact (result_json r ~correct))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME update-heavy | read-heavy | model-check");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
