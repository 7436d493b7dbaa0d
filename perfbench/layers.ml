module P = Smem.Unboxed_memory.Padded

let domains = Native.domains
let n = Native.n
let metric = Report.metric

(* Time [op] in batches for [seconds], one span of [items] calls per
   batch; return ns per call. *)
let calibrate bufs ~domains ~seconds ~name ~items op =
  let id = Spans.intern name in
  let bufs_used = Array.sub bufs 0 domains in
  ignore
    (Harness.Throughput.run_batched ~domains ~seconds ~batch:items
       ~op:(fun d _ ->
         let t0 = Clock.now_ns () in
         op d;
         Spans.record bufs.(d) ~name:id ~t0 ~t1:(Clock.now_ns ()) ~items)
       ());
  Spans.ns_per_item (Array.to_list bufs_used) id

let smem bufs ~seconds =
  let b = 1024 in
  let cell = P.make 0 in
  let load =
    calibrate bufs ~domains:1 ~seconds ~name:"smem.load" ~items:b (fun _ ->
        let acc = ref 0 in
        for _ = 1 to b do acc := !acc + P.read cell done;
        ignore (Sys.opaque_identity !acc))
  in
  let rmw _ =
    for _ = 1 to b do
      let v = P.read cell in
      ignore (P.cas cell ~expected:v ~desired:(v + 1))
    done
  in
  let cas = calibrate bufs ~domains:1 ~seconds ~name:"smem.cas" ~items:b rmw in
  let shared =
    calibrate bufs ~domains ~seconds ~name:"smem.cas_shared" ~items:b rmw
  in
  [ metric "smem.load_ns" "ns" load; metric "smem.cas_ns" "ns" cas;
    metric "smem.cas_shared_ns" "ns" shared ]

let treeprim bufs ~seconds =
  let b = 64 in
  let _, leaves =
    Treeprim.Tree_shape.complete ~mk:(fun () -> P.make P.bot) ~nleaves:n ()
  in
  let next = Array.make (domains * 16) 0 in
  let walk d =
    let leaf = leaves.(d) in
    for _ = 1 to b do
      let k = next.(d * 16) in
      next.(d * 16) <- k + 1;
      P.write leaf.Treeprim.Tree_shape.data ((k * domains) + d + 1);
      Treeprim.Propagate.Unboxed.propagate ~refreshes:2 ~combine:max leaf
    done
  in
  let solo =
    calibrate bufs ~domains:1 ~seconds ~name:"treeprim.propagate" ~items:b walk
  in
  let shared =
    calibrate bufs ~domains ~seconds ~name:"treeprim.propagate_shared" ~items:b
      walk
  in
  [ metric "treeprim.propagate_ns" "ns" solo;
    metric "treeprim.propagate_shared_ns" "ns" shared ]

let driver bufs ~seed ~read_share ~seconds =
  let b = 1024 in
  let clock =
    calibrate bufs ~domains:1 ~seconds ~name:"driver.clock" ~items:b (fun _ ->
        for _ = 1 to b do ignore (Sys.opaque_identity (Clock.now_ns ())) done)
  in
  let mr = { Maxreg.Max_register.read_max = (fun () -> 0);
             write_max = (fun ~pid:_ _ -> ()) } in
  let ctr = { Counters.Counter.increment = (fun ~pid:_ -> ()); read = (fun () -> 0) } in
  let cursors =
    Array.init domains (fun domain -> Gen.cursor ~seed ~read_share ~domains ~domain)
  in
  let empty =
    calibrate bufs ~domains ~seconds ~name:"driver.empty_op" ~items:256 (fun d ->
        Gen.run_batch cursors.(d) mr ctr 256)
  in
  (* The same loop over the workload's objects: the driver's share of an
     operation's time. *)
  let st = Native.build ~seed ~read_share in
  let full =
    calibrate bufs ~domains ~seconds ~name:"driver.workload_op" ~items:256 (fun d ->
        Gen.run_batch st.Native.cursors.(d) st.mr st.ctr 256)
  in
  [ metric "driver.clock_ns" "ns" clock; metric "driver.empty_op_ns" "ns" empty;
    metric "driver.time_share" "ratio" (empty /. full) ]

(* {1 Structure calls, direct and through the instance records}

   One batch is one full schedule cycle, its operations grouped by kind
   and each group timed as one span, so the per-kind cost carries no
   skipped-iteration overhead. *)

type grouped = {
  cursor : Gen.cursor;
  by_kind : int array array;  (* schedule positions of each kind *)
}

let grouped ~seed ~read_share d =
  let cursor = Gen.cursor ~seed ~read_share ~domains ~domain:d in
  let by_kind =
    Array.init 4 (fun k ->
        let ps = ref [] in
        Array.iteri (fun i x -> if x = k then ps := i :: !ps) cursor.Gen.sched;
        Array.of_list (List.rev !ps))
  in
  { cursor; by_kind }

let kind_names prefix =
  Array.map (fun s -> Spans.intern (prefix ^ "." ^ s))

let direct_ids =
  [| Spans.intern "maxreg.write_max"; Spans.intern "counters.increment";
     Spans.intern "maxreg.read_max"; Spans.intern "counters.read" |]

let instance_ids =
  kind_names "instances" [| "write_max"; "increment"; "read_max"; "read" |]

(* Run one grouped cycle; [call k v] performs one operation of kind [k]
   ([v] is the write value for kind 0). *)
let grouped_cycle buf ids g call =
  let c = g.cursor in
  Array.iteri
    (fun k positions ->
      let cnt = Array.length positions in
      if cnt > 0 then begin
        let t0 = Clock.now_ns () in
        if k = Gen.write_max then begin
          let w = c.Gen.writes in
          for i = 0 to cnt - 1 do call k (Gen.value c (w + i)) done;
          c.Gen.writes <- w + cnt
        end
        else for _ = 1 to cnt do call k 0 done;
        Spans.record buf ~name:ids.(k) ~t0 ~t1:(Clock.now_ns ()) ~items:cnt
      end)
    g.by_kind;
  c.Gen.pos <- c.Gen.pos + Gen.cycle

let structures bufs ~seed ~read_share ~seconds =
  let module A = Maxreg.Algorithm_a.Unboxed in
  let module F = Counters.Farray_counter.Unboxed in
  let reg = A.create ~n () and cnt = F.create ~n () in
  let mr, ctr = Native.objects () in
  let gd = Array.init domains (grouped ~seed ~read_share) in
  let gi = Array.init domains (grouped ~seed ~read_share) in
  let direct buf d =
    grouped_cycle buf direct_ids gd.(d) (fun k v ->
        match k with
        | 0 -> A.write_max reg ~pid:d v
        | 1 -> F.increment cnt ~pid:d
        | 2 -> ignore (Sys.opaque_identity (A.read_max reg))
        | _ -> ignore (Sys.opaque_identity (F.read cnt)))
  in
  let through buf d =
    grouped_cycle buf instance_ids gi.(d) (fun k v ->
        match k with
        | 0 -> mr.write_max ~pid:d v
        | 1 -> ctr.increment ~pid:d
        | 2 -> ignore (Sys.opaque_identity (mr.read_max ()))
        | _ -> ignore (Sys.opaque_identity (ctr.read ())))
  in
  (* Direct and record calls alternate cycle by cycle on twin objects fed
     the same stream, so both see the same contention. *)
  let alternate bufs ~domains ~seconds =
    ignore
      (Harness.Throughput.run_batched ~domains ~seconds ~batch:Gen.cycle
         ~op:(fun d i ->
           if i / Gen.cycle land 1 = 0 then direct bufs.(d) d
           else through bufs.(d) d)
         ())
  in
  let per_op bufs ids =
    let ns, items =
      Array.fold_left
        (fun (ns, items) id ->
          let t = Spans.totals bufs id in
          (ns + t.Spans.total_ns, items + t.Spans.items))
        (0, 0) ids
    in
    float_of_int ns /. float_of_int (max 1 items)
  in
  alternate bufs ~domains ~seconds;
  let all = Array.to_list bufs in
  let ns id = Spans.ns_per_item all id in
  let total id = float_of_int (Spans.totals all id).Spans.total_ns in
  let direct_total = Array.fold_left (fun acc id -> acc +. total id) 0. direct_ids in
  let costs =
    [ metric "workload.update_time_share" "ratio"
        ((total direct_ids.(Gen.write_max) +. total direct_ids.(Gen.increment))
         /. direct_total);
      metric "maxreg.write_ns" "ns" (ns direct_ids.(0));
      metric "maxreg.read_ns" "ns" (ns direct_ids.(2));
      metric "counters.increment_ns" "ns" (ns direct_ids.(1));
      metric "counters.read_ns" "ns" (ns direct_ids.(3)) ]
  in
  (* The record call adds a few ns, far below the contention noise of
     two-domain updates: take the difference from a solo pass, recorded
     in a buffer of its own. *)
  let solo = [| Spans.create ~tid:0 |] in
  alternate solo ~domains:1 ~seconds;
  let solo = Array.to_list solo in
  costs
  @ [ metric "instances.call_overhead_ns" "ns"
        (per_op solo instance_ids -. per_op solo direct_ids) ]

(* {1 Exact steps}

   The first [steps_ops] operations of every domain's stream, replayed
   solo in round-robin order through counting memories. *)

let steps_ops = 4096

let steps ~seed ~read_share =
  let mmem, mc = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let cmem, cc = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let mr = Harness.Instances.maxreg_over mmem ~n ~bound:max_int Harness.Instances.Algorithm_a in
  let ctr = Harness.Instances.counter_over cmem ~n ~bound:max_int Harness.Instances.Farray_counter in
  let cursors =
    Array.init domains (fun domain -> Gen.cursor ~seed ~read_share ~domains ~domain)
  in
  let steps = Array.make 4 0 and ops = Array.make 4 0 and update_cas = ref 0 in
  for _ = 1 to steps_ops do
    Array.iter
      (fun c ->
        let k = c.Gen.sched.(c.Gen.pos land (Gen.cycle - 1)) in
        let counts = if k = Gen.write_max || k = Gen.read_max then mc else cc in
        let before = Smem.Counting_memory.total counts and cas0 = counts.cas in
        Gen.run_batch c mr ctr 1;
        steps.(k) <- steps.(k) + Smem.Counting_memory.total counts - before;
        ops.(k) <- ops.(k) + 1;
        if k = Gen.write_max || k = Gen.increment then
          update_cas := !update_cas + counts.cas - cas0)
      cursors
  done;
  let mean k = float_of_int steps.(k) /. float_of_int (max 1 ops.(k)) in
  let updates = ops.(Gen.write_max) + ops.(Gen.increment) in
  [ metric "steps.maxreg_write" "steps" (mean Gen.write_max);
    metric "steps.maxreg_read" "steps" (mean Gen.read_max);
    metric "steps.counter_increment" "steps" (mean Gen.increment);
    metric "steps.counter_read" "steps" (mean Gen.read_count);
    metric "steps.update_cas" "steps"
      (float_of_int !update_cas /. float_of_int (max 1 updates)) ]

(* {1 Retries and helping}, from the metered instances on the same
   stream. *)

let metered bufs ~seed ~read_share ~seconds =
  let metrics = Obs.Metrics.create ~domains () in
  let mr =
    Option.get
      (Harness.Instances.maxreg_native_metered ~metrics ~n ~bound:max_int
         Harness.Instances.Algorithm_a)
  and ctr =
    Option.get
      (Harness.Instances.counter_native_metered ~metrics ~n ~bound:max_int
         Harness.Instances.Farray_counter)
  in
  let cursors =
    Array.init domains (fun domain -> Gen.cursor ~seed ~read_share ~domains ~domain)
  in
  ignore
    (calibrate bufs ~domains ~seconds ~name:"metered.batch" ~items:256 (fun d ->
         Gen.run_batch cursors.(d) mr ctr 256));
  let t = Obs.Metrics.totals metrics in
  let writes = Array.fold_left (fun acc c -> acc + c.Gen.writes) 0 cursors in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [ metric "treeprim.cas_fail_ratio" "ratio" (ratio t.cas_failures t.cas_attempts);
    metric "treeprim.refreshes_per_update" "count" (ratio t.refresh_rounds t.op_updates);
    metric "maxreg.helps_per_write" "count" (ratio t.helps writes) ]

(* The structure passes get the most time: their per-kind costs are the
   noisiest figures (two-domain updates). *)
let native ~seed ~read_share ~seconds bufs =
  let s = seconds /. 40. in
  smem bufs ~seconds:s
  @ treeprim bufs ~seconds:s
  @ driver bufs ~seed ~read_share ~seconds:s
  @ structures bufs ~seed ~read_share ~seconds:(4. *. s)
  @ steps ~seed ~read_share
  @ metered bufs ~seed ~read_share ~seconds:s

let model_check ?round buf =
  let r = match round with Some r -> r | None -> Mc.round ~spans:buf () in
  let events = Mc.memsim_events () in
  let run = Spans.totals [ buf ] (Spans.intern "dpor.run") in
  let check = Spans.totals [ buf ] (Spans.intern "linearize.check") in
  let explored = r.Mc.executions and blocked = r.Mc.sleep_blocked in
  (* memsim_events counts one round; the span totals may cover several *)
  let rounds = float_of_int run.Spans.items /. float_of_int (max 1 explored) in
  [ metric "dpor.explored" "count" (float_of_int explored);
    metric "dpor.sleep_blocked" "count" (float_of_int blocked);
    metric "dpor.useful_ratio" "ratio"
      (float_of_int explored /. float_of_int (max 1 (explored + blocked)));
    metric "memsim.events" "count" (float_of_int events);
    metric "memsim.ns_per_event" "ns"
      (float_of_int run.Spans.self_ns /. (rounds *. float_of_int (max 1 events)));
    metric "linearize.check_us" "us"
      (float_of_int check.Spans.total_ns /. 1000. /. float_of_int (max 1 check.Spans.items));
    metric "linearize.time_share" "ratio"
      (float_of_int check.Spans.total_ns /. float_of_int (max 1 run.Spans.total_ns)) ]
