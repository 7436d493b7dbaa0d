let n = 64
let domains = 2
let batch = 256
let trials = 20

(* The schedules hold the exact read count per cycle, so the reads
   counted where they are issued may differ from the declared share
   only by the cycle's rounding and a partial last cycle. *)
let share_tolerance = 0.005

type state = {
  mr : Maxreg.Max_register.instance;
  ctr : Counters.Counter.instance;
  cursors : Gen.cursor array;
}

let objects () =
  ( Option.get
      (Harness.Instances.maxreg_native_fast ~n ~bound:max_int
         Harness.Instances.Algorithm_a),
    Option.get
      (Harness.Instances.counter_native_fast ~n ~bound:max_int
         Harness.Instances.Farray_counter) )

let build ~seed ~read_share =
  let mr, ctr = objects () in
  let cursors =
    Array.init domains (fun domain ->
        Gen.cursor ~seed ~read_share ~domains ~domain)
  in
  { mr; ctr; cursors }

(* Minor-heap words the workers allocate, read at batch ends: slot
   [d * 16] holds the domain's first reading, [d * 16 + 1] its last, with
   the stream positions they were taken at.  Workers are fresh domains in
   every [run_batched] call, so a record covers one call. *)
type alloc = { words : float array; at : int array }

let note_alloc a d pos =
  let w = Gc.minor_words () in
  let i = d * 16 in
  if Float.is_nan a.words.(i) then begin
    a.words.(i) <- w;
    a.at.(i) <- pos
  end;
  a.words.(i + 1) <- w;
  a.at.(i + 1) <- pos

(* One throughput trial: ops/s over the domains, and the minor words and
   operations between each worker's first and last batch. *)
let throughput st ~seconds =
  let a =
    { words = Array.make (domains * 16) nan; at = Array.make (domains * 16) 0 }
  in
  let rate =
    Harness.Throughput.run_batched ~domains ~seconds ~batch
      ~op:(fun d _ ->
        let c = st.cursors.(d) in
        Gen.run_batch c st.mr st.ctr batch;
        note_alloc a d c.Gen.pos)
      ()
  in
  let words = ref 0. and ops = ref 0 in
  for d = 0 to domains - 1 do
    let i = d * 16 in
    if not (Float.is_nan a.words.(i)) then begin
      words := !words +. (a.words.(i + 1) -. a.words.(i));
      ops := !ops + (a.at.(i + 1) - a.at.(i))
    end
  done;
  (rate, !words, !ops)

let words_per_op trials =
  let w, o =
    Array.fold_left (fun (w, o) (_, tw, to_) -> (w +. tw, o + to_)) (0., 0) trials
  in
  w /. float_of_int (max 1 o)

let rate (r, _, _) = r

(* One latency trial: every operation of a window timed, recorded by
   class into per-domain histograms and merged.  A window of at least
   0.1 s gives the 1% class of read-heavy the thousand samples its p99
   needs. *)
let latency st ~seconds =
  let hists () = Array.init domains (fun _ -> Obs.Histogram.create ()) in
  let updates = hists () and reads = hists () in
  ignore
    (Harness.Throughput.run_batched ~domains ~seconds ~batch
       ~op:(fun d _ ->
         Gen.run_batch_timed st.cursors.(d) st.mr st.ctr ~updates:updates.(d)
           ~reads:reads.(d) batch)
       ());
  (Stats.merge updates, Stats.merge reads)

let ops st = Array.fold_left (fun acc c -> acc + c.Gen.pos) 0 st.cursors

(* Workload truth and the structures' final state, as named checks; the
   count of failures they represent goes into [failed]. *)
let checks st ~read_share =
  let total = ops st in
  let reads = Array.fold_left (fun acc c -> acc + c.Gen.reads) 0 st.cursors in
  let measured = float_of_int reads /. float_of_int (max 1 total) in
  let incs = Array.fold_left (fun acc c -> acc + c.Gen.increments) 0 st.cursors in
  let count = st.ctr.read () in
  let max_written = Gen.max_written st.cursors in
  let max_read = st.mr.read_max () in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 st.cursors in
  let replays = sum (fun c -> c.Gen.replays) in
  let decreases = sum (fun c -> c.Gen.decreases) in
  let share_ok = Float.abs (measured -. read_share) <= share_tolerance in
  let failed =
    abs (count - incs)
    + (if max_read <> max_written then 1 else 0)
    + replays + decreases
    + if share_ok then 0 else 1
  in
  let checks =
    [ (Printf.sprintf "counter read %d = increments issued %d" count incs,
       count = incs);
      (Printf.sprintf "read_max %d = largest value written %d" max_read
         max_written, max_read = max_written);
      (Printf.sprintf "sampled reads never decreased (%d decreases)" decreases,
       decreases = 0);
      (Printf.sprintf "no write value replayed (%d replays)" replays,
       replays = 0);
      (Printf.sprintf "read share %.5f within %.3f of declared %.3f" measured
         share_tolerance read_share, share_ok) ]
  in
  (min failed total, measured, replays, checks)

(* A histogram percentile is a bucket midpoint (under 3% apart), so a
   median over trials would read the same bucket on most runs; the
   interquartile mean over trials resolves changes smaller than a bucket
   and, like the median, ignores the few trials whose p50 falls into the
   faster mode of the two-domain contention pattern. *)
let run ~seed ~read_share ~seconds =
  (* set-up time covers the library's share of [build], the two
     constructors, not the generator's cursors *)
  Clock.warm objects;
  let st = build ~seed ~read_share in
  ignore (throughput st ~seconds:(0.05 *. seconds));
  let tput = Array.make trials (0., 0., 0) in
  let setups = Array.make trials [||] in
  let lats =
    Array.init trials (fun i ->
        setups.(i) <- Clock.setup_samples objects ~samples:5;
        tput.(i) <- throughput st ~seconds:(0.03 *. seconds);
        latency st ~seconds:(Float.max 0.1 (0.015 *. seconds)))
  in
  let setup_s = Stats.median (Array.concat (Array.to_list setups)) in
  let over_trials sel p =
    Stats.interquartile_mean (Array.map (fun l -> Stats.percentile (sel l) p) lats)
  in
  let least sel =
    Array.fold_left (fun acc l -> min acc (Obs.Histogram.count (sel l))) max_int lats
  in
  let pooled name sel =
    let h = Stats.merge (Array.map sel lats) in
    List.filter_map
      (fun p ->
        if Stats.supports ~samples:(Obs.Histogram.count h) p then
          Some (Report.metric (Printf.sprintf "%s_p%g_ns" name p) "ns"
                  (Stats.percentile h p))
        else None)
      [ 99.9; 99.99 ]
  in
  let upd_p50 = over_trials fst 50. and upd_p99 = over_trials fst 99. in
  let rd_p50 = over_trials snd 50. and rd_p99 = over_trials snd 99. in
  let failed, measured, replays, checks = checks st ~read_share in
  (* The operation class the workload is made of: updates on
     update-heavy, reads on read-heavy. *)
  let p50, p99 = if read_share < 0.5 then (upd_p50, upd_p99) else (rd_p50, rd_p99) in
  let ops_per_s = Stats.median (Array.map rate tput) in
  let open Report in
  { attempted = ops st; failed;
    metrics =
      [ metric "ops_per_s" "1/s" ops_per_s; metric "op_p50_ns" "ns" p50;
        metric "op_p99_ns" "ns" p99; metric "setup_s" "s" setup_s ];
    notes =
      [ metric "throughput_mops" "Mops/s" (ops_per_s /. 1e6);
        metric "update_p50_ns" "ns" upd_p50; metric "update_p99_ns" "ns" upd_p99;
        metric "read_p50_ns" "ns" rd_p50; metric "read_p99_ns" "ns" rd_p99 ]
      @ pooled "update" fst @ pooled "read" snd
      @ [ metric "update_samples_per_trial" "count" (float_of_int (least fst));
        metric "read_samples_per_trial" "count" (float_of_int (least snd));
        metric "trials" "count" (float_of_int trials);
        metric "ops_per_s_trial_spread" "ratio" (Stats.spread (Array.map rate tput));
        metric "minor_words_per_op" "words" (words_per_op tput);
        metric "error_rate" "ratio" (Stats.error_rate ~failed ~attempted:(ops st));
        metric "workload.read_share" "ratio" measured;
        metric "workload.value_replays" "count" (float_of_int replays) ];
    checks }

let instances_batch = Spans.intern "instances.batch"

let traced_throughput st ~seconds (bufs : Spans.t array) =
  Harness.Throughput.run_batched ~domains ~seconds ~batch
    ~op:(fun d _ ->
      let t0 = Clock.now_ns () in
      Gen.run_batch st.cursors.(d) st.mr st.ctr batch;
      Spans.record bufs.(d) ~name:instances_batch ~t0 ~t1:(Clock.now_ns ())
        ~items:batch)
    ()

let run_traced ~seed ~read_share ~seconds bufs =
  let st = build ~seed ~read_share in
  ignore (throughput st ~seconds:(0.05 *. seconds));
  let plain = Array.make trials (0., 0., 0) and traced = Array.make trials 0. in
  for i = 0 to trials - 1 do
    plain.(i) <- throughput st ~seconds:(0.02 *. seconds);
    traced.(i) <- traced_throughput st ~seconds:(0.02 *. seconds) bufs
  done;
  let failed, measured, replays, checks = checks st ~read_share in
  let untraced = Stats.median (Array.map rate plain) in
  let open Report in
  { attempted = ops st; failed;
    metrics =
      [ metric "workload.read_share" "ratio" measured;
        metric "workload.value_replays" "count" (float_of_int replays);
        metric "trace.overhead_pct" "%"
          (100. *. (untraced -. Stats.median traced) /. untraced);
        metric "alloc.minor_words_per_op" "words" (words_per_op plain) ];
    notes = [ metric "throughput_mops" "Mops/s" (untraced /. 1e6) ];
    checks }
