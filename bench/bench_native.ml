(* The native sweep behind bin/bench.exe, for both of its target sets:

   - the backend sweep: the int-specialized implementations (all but
     aac-unbounded-b1, see [targets]), boxed (Simval Atomic) vs unboxed
     (padded int Atomic) vs flat-combining backend.  This is where the
     constant-factor story of the paper's O(1)-read structures is
     measured honestly: same algorithms, same step counts, only the
     base-object representation (and, for the combining backend, the
     update submission protocol) changes;
   - the dial sweep ([bench --dial], see {!Bench_dial}): the unboxed
     {!Counters.Dial_counter} at each of the four dial points, N = 64
     ([dial_targets]).

   Either is swept over domain counts and read shares, with shared
   warmup and interleaved trials.  Every closure writes through a
   per-domain value cursor that persists across all of a cell's passes,
   so no trial re-times writes an earlier one already made.

   Each cell runs three kinds of pass:

   - throughput trials over the plain fused closures (no clocks, no
     metrics in the loop — the numbers of record), timed by
     {!Harness.Throughput.run_batched}'s measured barrier->stop-ack
     window.  All cells are constructed up front and their trials run in
     interleaved rounds (round-major, not cell-major), so slow drift of
     the host — thermal state, background load — lands evenly across
     cells instead of correlating with sweep order, and every trial after
     the first inherits the previous rounds as extra warmup of the same
     closure and structure;
   - a latency pass clocking the same fused closures per batched call
     into per-domain log-bucketed histograms (all backends, so the
     percentiles compare like the throughput medians do);
   - a metered pass running the workload through the registry instances
     of {!Harness.Instances}: on the unboxed and combining backends the
     instrumented ones, to collect contention counts (CAS
     attempts/failures, refresh rounds, helps, and for combining:
     batches, combined ops, eliminations, combiner-lock acquisitions);
     on every max register also the stale-write share.  All passes are
     separate so the observability layer can never bias the throughput
     rows.

   Results are emitted both as a table (stdout) and as machine-readable
   JSON (BENCH_NATIVE.json, schema "bench-native/v5"; the dial sweep
   wraps the same rows in BENCH_DIAL.json) so future changes have a perf
   trajectory to regress against (see {!Baseline}). *)

type config = {
  dial : bool;             (* the dial targets instead of the backend ones *)
  domain_counts : int list;
  read_shares : int list;  (* percent of operations that are reads *)
  seconds : float;         (* per timed trial *)
  warmup_seconds : float;
  trials : int;
  quick : bool;
}

let config ?(quick = false) ?(dial = false) ?(max_domains = 4) ?seconds
    ?trials ?(read_shares = [ 0; 50; 90; 99 ]) () =
  let rec powers d = if d > max_domains then [] else d :: powers (2 * d) in
  let domain_counts = match powers 1 with [] -> [ 1 ] | ds -> ds in
  { dial;
    domain_counts;
    read_shares;
    seconds = (match seconds with Some s -> s | None -> if quick then 0.05 else 0.3);
    warmup_seconds = (if quick then 0.02 else 0.15);
    trials = (match trials with Some t -> t | None -> if quick then 1 else 3);
    quick }

type row = {
  structure : string;
  impl : string;
  backend : string;  (* "boxed" | "unboxed" | "combining" *)
  domains : int;
  read_pct : int;
  mops : float;        (* median over trials *)
  trial_mops : float list;
  rsd : float;         (* relative stddev of the trials: stddev/mean *)
  oversubscribed : bool;  (* domains > recommended_domains of this host *)
  stale_share : float option;
      (* max registers: share of metered-pass writes at or below the
         max read just before them; None on counters *)
  (* latency pass *)
  lat_p50 : float;     (* ns per op *)
  lat_p95 : float;
  lat_p99 : float;
  lat_max : float;
  lat_samples : int;   (* batched-call samples behind the percentiles *)
  (* metered pass *)
  metrics : Obs.Metrics.totals option;  (* None on the boxed backend *)
}

(* {1 Workload construction}

   Honest measurement of sub-10ns operations needs the loop body to be the
   operation itself, so each (implementation, backend) pair gets a fused,
   batched closure written out by hand:

   - the read/write mix is a precomputed 128-slot Bresenham pattern,
     decided per op by one array load and a mask (an integer division
     would cost as much as the unboxed operation being measured);
   - the implementation is called *directly* — the unboxed and combining
     modules are concrete, so those compile to static calls, while the
     boxed side's indirect functor call is part of the representation
     cost being measured.  Any generic wrapper (instance record,
     first-class module) would add an indirect call to both sides and
     dilute the ratio;
   - each closure performs [batch] operations per invocation, so the
     harness's stop-flag read and bookkeeping amortize to noise
     ({!Harness.Throughput.run_batched}).

   The modules measured are exactly the ones the registry
   ({!Harness.Instances.maxreg_native} / [_native_fast] /
   [_native_combining] / [counter_native_dial]) hands out; only the call
   path is flattened here.  The metered pass, by contrast, goes through
   the registry's [_native_metered] / [_native_combining_metered] /
   [counter_native_dial_metered] instances — indirect calls, which is
   fine: its numbers are distributions and counts, not the throughput of
   record. *)

let pattern_slots = 128
let mask = pattern_slots - 1
let batch = 64

(* Evenly interleaved deterministic mix: read share quantized to
   [reads]/128 (error at most 1/256: 99% -> 127/128 = 99.2%).  The same
   pattern drives both backends, so the schedules compared are
   identical. *)
let read_pattern ~read_pct =
  let reads = ((read_pct * pattern_slots) + 50) / 100 in
  Array.init pattern_slots (fun i ->
      ((i + 1) * reads / pattern_slots) - (i * reads / pattern_slots) = 1)

(* The value cursor.  [run_batched] restarts [i0] at 0 on every call,
   while a cell's structure persists across warmup, every trial and the
   latency pass; a closure deriving its write values from [i0] alone
   would replay values below the register's max from the second call on,
   so later trials would time stale writes.  [with_cursor] keeps a
   per-domain batch count that survives those calls and hands the
   closure [m * pattern_slots + (i0 land mask)] for the domain's [m]-th
   batch: the pattern slots (and so the read/update mix) are exactly
   those of [i0], and every batch writes values above all the domain's
   earlier ones.  Counts are single-writer, one 64-byte line per
   domain. *)
let cursor_stride = 8

let with_cursor ~domains op =
  let m = Array.make (domains * cursor_stride) 0 in
  fun d i0 ->
    let s = d * cursor_stride in
    let b = Array.unsafe_get m s in
    Array.unsafe_set m s (b + 1);
    op d ((b * pattern_slots) + (i0 land mask))

type kind =
  | Maxreg of Harness.Instances.maxreg_impl
  | Counter of Harness.Instances.counter_impl
  | Dial of Treeprim.Dial.t

type backend = [ `Boxed | `Unboxed | `Combining ]

(* [mk] returns the fused closure (before the value cursor) and a read
   of the structure it drives (ReadMax, or the counter's read). *)
type target = {
  structure : string;
  impl_name : string;
  kind : kind;
  backends : backend list;
  mk :
    backend:backend ->
    n:int ->
    domains:int ->
    pattern:bool array ->
    (int -> int -> unit) * (unit -> int);
}

module AB = Maxreg.Algorithm_a.Make (Smem.Atomic_memory)
module CB = Maxreg.Cas_maxreg.Make (Smem.Atomic_memory)
module FB = Counters.Farray_counter.Make (Smem.Atomic_memory)
module NB = Counters.Naive_counter.Make (Smem.Atomic_memory)
module AU = Maxreg.Algorithm_a.Unboxed
module CU = Maxreg.Cas_maxreg.Unboxed
module FU = Counters.Farray_counter.Unboxed
module NU = Counters.Naive_counter.Unboxed
module DU = Counters.Dial_counter.Unboxed
module AC = Harness.Combining.Alg_a
module FC = Harness.Combining.Farray_c

(* Max registers write domain-disjoint values [i * domains + d], with
   [i] from the value cursor: each domain's stream strictly increases
   across every call of the closure, and the CAS-based propagation
   paths stay ABA-free.  Across domains a write can still land at or
   below the max another domain already installed; the metered pass
   measures that share per row ([stale_share]), and the combining
   backend eliminates such writes. *)

let alg_a_target =
  { structure = "max-register";
    impl_name = Harness.Instances.maxreg_name Harness.Instances.Algorithm_a;
    kind = Maxreg Harness.Instances.Algorithm_a;
    backends = [ `Boxed; `Unboxed; `Combining ];
    mk =
      (fun ~backend ~n ~domains ~pattern ->
        (* One closure builder shared by the unboxed backend and the
           d=1 combining cells (create-time solo dispatch, see
           Harness.Combining: one participating domain can never
           contend, so the combining backend at domains = 1 *is* the
           plain unboxed structure).  Sharing the builder means those
           rows run the SAME compiled loop and differ only in data — a
           separate textual copy of an identical loop can land on
           different code alignment and skew sub-3ns cells by ~10%. *)
        let unboxed_cell () =
          let reg = AU.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                let i = i0 + k in
                if Array.unsafe_get pattern (i land mask) then
                  ignore (AU.read_max reg : int)
                else AU.write_max reg ~pid:d ((i * domains) + d)
              done),
            fun () -> AU.read_max reg )
        in
        match backend with
        | `Boxed ->
          let reg = AB.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                let i = i0 + k in
                if Array.unsafe_get pattern (i land mask) then
                  ignore (AB.read_max reg : int)
                else AB.write_max reg ~pid:d ((i * domains) + d)
              done),
            fun () -> AB.read_max reg )
        | `Unboxed -> unboxed_cell ()
        | `Combining when domains = 1 -> unboxed_cell ()
        | `Combining ->
          let reg = AC.create ~n ~domains () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                let i = i0 + k in
                if Array.unsafe_get pattern (i land mask) then
                  ignore (AC.read_max reg : int)
                else AC.write_max reg ~pid:d ((i * domains) + d)
              done),
            fun () -> AC.read_max reg )) }

let cas_target =
  { structure = "max-register";
    impl_name = Harness.Instances.maxreg_name Harness.Instances.Cas_maxreg;
    kind = Maxreg Harness.Instances.Cas_maxreg;
    backends = [ `Boxed; `Unboxed ];
    mk =
      (fun ~backend ~n ~domains ~pattern ->
        ignore n;
        match backend with
        | `Boxed ->
          let reg = CB.create () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                let i = i0 + k in
                if Array.unsafe_get pattern (i land mask) then
                  ignore (CB.read_max reg : int)
                else CB.write_max reg ~pid:d ((i * domains) + d)
              done),
            fun () -> CB.read_max reg )
        | `Unboxed ->
          let reg = CU.create () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                let i = i0 + k in
                if Array.unsafe_get pattern (i land mask) then
                  ignore (CU.read_max reg : int)
                else CU.write_max reg ~pid:d ((i * domains) + d)
              done),
            fun () -> CU.read_max reg )
        | `Combining -> invalid_arg "cas-loop has no combining backend") }

let farray_target =
  { structure = "counter";
    impl_name =
      Harness.Instances.counter_name Harness.Instances.Farray_counter;
    kind = Counter Harness.Instances.Farray_counter;
    backends = [ `Boxed; `Unboxed; `Combining ];
    mk =
      (fun ~backend ~n ~domains ~pattern ->
        (* shared for the same code-placement reason as algorithm-a *)
        let unboxed_cell () =
          let c = FU.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (FU.read c : int)
                else FU.increment c ~pid:d
              done),
            fun () -> FU.read c )
        in
        match backend with
        | `Boxed ->
          let c = FB.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (FB.read c : int)
                else FB.increment c ~pid:d
              done),
            fun () -> FB.read c )
        | `Unboxed -> unboxed_cell ()
        | `Combining when domains = 1 -> unboxed_cell ()
        | `Combining ->
          let c = FC.create ~n ~domains () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (FC.read c : int)
                else FC.increment c ~pid:d
              done),
            fun () -> FC.read c )) }

let naive_target =
  { structure = "counter";
    impl_name = Harness.Instances.counter_name Harness.Instances.Naive_counter;
    kind = Counter Harness.Instances.Naive_counter;
    backends = [ `Boxed; `Unboxed ];
    mk =
      (fun ~backend ~n ~domains:_ ~pattern ->
        match backend with
        | `Boxed ->
          let c = NB.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (NB.read c : int)
                else NB.increment c ~pid:d
              done),
            fun () -> NB.read c )
        | `Unboxed ->
          let c = NU.create ~n () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (NU.read c : int)
                else NU.increment c ~pid:d
              done),
            fun () -> NU.read c )
        | `Combining -> invalid_arg "naive has no combining backend") }

(* aac-unbounded-b1 is not swept: its register materializes tree nodes
   lazily, one path per distinct value written (B1_maxreg), so under the
   fresh per-domain stream a cell holds about 300 bytes for every write
   it has ever made.  With every cell alive at once, its 24 cells
   exhausted an 8 GB host by the fourth trial round. *)
let targets = [ alg_a_target; cas_target; farray_target; naive_target ]

(* The dial sweep: Theorem 1's frontier at N = [dial_n], one target per
   dial point, unboxed only (the family's boxed twin runs under Memsim,
   where {!Bench_dial}'s steps section counts its accesses). *)
let dial_n = 64

let dial_target dial =
  { structure = "counter";
    impl_name = "dial-" ^ Treeprim.Dial.name dial;
    kind = Dial dial;
    backends = [ `Unboxed ];
    mk =
      (fun ~backend ~n ~domains:_ ~pattern ->
        match backend with
        | `Unboxed ->
          let c = DU.create ~n ~dial () in
          ( (fun d i0 ->
              for k = 0 to batch - 1 do
                if Array.unsafe_get pattern ((i0 + k) land mask) then
                  ignore (DU.read c : int)
                else DU.increment c ~pid:d
              done),
            fun () -> DU.read c )
        | `Boxed | `Combining ->
          invalid_arg "the dial sweep has only the unboxed backend") }

let dial_targets = List.map dial_target Treeprim.Dial.all

let targets_of cfg = if cfg.dial then dial_targets else targets

let timed_cell kind ~backend ~n ~domains ~read_pct =
  let t = List.find (fun t -> t.kind = kind) (targets @ dial_targets) in
  let op, read = t.mk ~backend ~n ~domains ~pattern:(read_pattern ~read_pct) in
  (with_cursor ~domains op, read)

(* The metered closures: the same workload through the instrumented
   registry instances, recording [Op_read] per read here (the instance
   wrappers record [Op_update]; reads carry no pid so the domain-correct
   shard is only known at this call site).  The max-register closure
   also tallies, per domain on its own line, writes ([d * cursor_stride])
   and stale writes ([+ 1]: the value was at or below the max read just
   before the write).  With the cursor no domain ever replays its own
   values, so at one domain the only stale write is the very first (0,
   the initial max), and at more the share measures how often another
   domain's writes had already overtaken this one. *)
let maxreg_metered_op ~metrics ~(inst : Maxreg.Max_register.instance)
    ~domains ~pattern =
  let tally = Array.make (domains * cursor_stride) 0 in
  let op d i0 =
    let s = d * cursor_stride in
    for k = 0 to batch - 1 do
      let i = i0 + k in
      if Array.unsafe_get pattern (i land mask) then begin
        Obs.Metrics.incr metrics ~domain:d Obs.Metrics.Op_read;
        ignore (inst.read_max () : int)
      end
      else begin
        let v = (i * domains) + d in
        Array.unsafe_set tally s (Array.unsafe_get tally s + 1);
        if v <= inst.read_max () then
          Array.unsafe_set tally (s + 1) (Array.unsafe_get tally (s + 1) + 1);
        inst.write_max ~pid:d v
      end
    done
  in
  let stale_share () =
    let writes = ref 0 and stale = ref 0 in
    for d = 0 to domains - 1 do
      writes := !writes + tally.(d * cursor_stride);
      stale := !stale + tally.((d * cursor_stride) + 1)
    done;
    if !writes = 0 then 0. else float_of_int !stale /. float_of_int !writes
  in
  (with_cursor ~domains op, stale_share)

let counter_metered_op ~metrics ~(inst : Counters.Counter.instance) ~domains
    ~pattern =
  with_cursor ~domains (fun d i0 ->
      for k = 0 to batch - 1 do
        if Array.unsafe_get pattern ((i0 + k) land mask) then begin
          Obs.Metrics.incr metrics ~domain:d Obs.Metrics.Op_read;
          ignore (inst.read () : int)
        end
        else inst.increment ~pid:d
      done)

(* Trials can in principle produce NaN (a degenerate measurement window);
   drop non-finite samples before sorting — NaN has no consistent order
   under [compare], so it can scramble the sort — and average the two
   middle elements on even length.  (Taking the upper-middle element
   alone, as before, biased every even-trial-count median high.) *)
let median xs =
  match List.sort Float.compare (List.filter Float.is_finite xs) with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* Relative standard deviation of the trials (sample stddev / mean): the
   per-row noise figure of merit.  0 for fewer than two finite samples or
   a non-positive mean — those rows are degenerate, and the median/NaN
   path already exposes them. *)
let rsd xs =
  let s = Harness.Stats.summarize xs in
  if s.Harness.Stats.count < 2 || s.Harness.Stats.mean <= 0. then 0.
  else s.Harness.Stats.stddev /. s.Harness.Stats.mean

(* Trials noisier than this (stddev over a quarter of the mean) get
   flagged in the table; treat such rows as unreliable. *)
let rsd_flag_threshold = 0.25

let backend_name : backend -> string = function
  | `Boxed -> "boxed"
  | `Unboxed -> "unboxed"
  | `Combining -> "combining"

(* Structures are sized once for the sweep's largest domain count (the
   usual benchmark convention: a structure built for P processes, of which
   [domains] are active), so single-domain rows exercise the same tree
   depths as the scaled rows rather than a degenerate one-leaf instance.
   The dial sweep fixes N instead: its dial points only differ at an N
   with distinct f = 1, log N, sqrt N, N. *)
let structure_n cfg =
  if cfg.dial then dial_n else List.fold_left max 1 cfg.domain_counts

(* {1 The sweep}

   All cells are built before any timing: the fused closure and its
   structure persist for the cell's whole life, so the warmup pass and
   every earlier trial round warm exactly the code and memory that later
   rounds measure (satellite fix for trial-to-trial variance: previously
   each cell ran its trials back-to-back right after a cold-ish start,
   and sweep-order drift correlated with the cell grid). *)

type cell = {
  c_target : target;
  c_backend : backend;
  c_domains : int;
  c_read_pct : int;
  c_op : int -> int -> unit;
  mutable c_trials : float list;  (* reverse trial order *)
}

let make_cells cfg =
  let n = structure_n cfg in
  List.concat_map
    (fun target ->
      List.concat_map
        (fun backend ->
          List.concat_map
            (fun domains ->
              List.map
                (fun read_pct ->
                  let op, _read =
                    timed_cell target.kind ~backend ~n ~domains ~read_pct
                  in
                  { c_target = target;
                    c_backend = backend;
                    c_domains = domains;
                    c_read_pct = read_pct;
                    c_op = op;
                    c_trials = [] })
                cfg.read_shares)
            cfg.domain_counts)
        target.backends)
    (targets_of cfg)

(* The metered pass of one cell: the cell's workload through the
   instrumented registry instance of its backend, separate from the
   latency pass so the record sites and the instances' indirect calls
   never sit inside the clocked window.  Returns the contention metrics
   (None on the boxed backend, which has no instrumented twin) and, on
   max registers, the stale-write share — measured on boxed rows too,
   through the plain boxed instance. *)
let metered_pass ~cfg (c : cell) =
  let n = structure_n cfg and bound = 1 lsl 20 and domains = c.c_domains in
  let pattern = read_pattern ~read_pct:c.c_read_pct in
  let metrics = Obs.Metrics.create ~domains () in
  let run op =
    ignore
      (Harness.Throughput.run_batched ~domains ~seconds:cfg.seconds ~batch
         ~op ()
        : float)
  in
  let arena, stale =
    match c.c_target.kind, c.c_backend with
    | Counter _, `Boxed -> (None, None)
    | Maxreg impl, backend ->
      let inst, arena =
        match backend with
        | `Boxed -> (Harness.Instances.maxreg_native ~n ~bound impl, None)
        | `Unboxed ->
          ( Option.get
              (Harness.Instances.maxreg_native_metered ~metrics ~n ~bound impl),
            None )
        | `Combining ->
          let inst, arena =
            Option.get
              (Harness.Instances.maxreg_native_combining_metered ~metrics ~n
                 ~domains ~bound impl)
          in
          (inst, Some arena)
      in
      let op, stale_share = maxreg_metered_op ~metrics ~inst ~domains ~pattern in
      run op;
      (arena, Some (stale_share ()))
    | Counter impl, `Unboxed ->
      let inst =
        Option.get
          (Harness.Instances.counter_native_metered ~metrics ~n ~bound impl)
      in
      run (counter_metered_op ~metrics ~inst ~domains ~pattern);
      (None, None)
    | Counter impl, `Combining ->
      let inst, arena =
        Option.get
          (Harness.Instances.counter_native_combining_metered ~metrics ~n
             ~domains ~bound impl)
      in
      run (counter_metered_op ~metrics ~inst ~domains ~pattern);
      (Some arena, None)
    | Dial dial, _ ->
      (* dial targets build unboxed cells only *)
      let inst = Harness.Instances.counter_native_dial_metered ~metrics ~n dial in
      run (counter_metered_op ~metrics ~inst ~domains ~pattern);
      (None, None)
  in
  Option.iter
    (fun a ->
      Obs.Metrics.record_combine_stats metrics ~domain:0 (Smem.Combine.stats a))
    arena;
  let metrics =
    if c.c_backend = `Boxed then None else Some (Obs.Metrics.totals metrics)
  in
  (metrics, stale)

(* Latency + metered epilogue for one cell, after all trial rounds. *)
let finish_cell ~cfg ~recommended (c : cell) =
  let hists = Array.init c.c_domains (fun _ -> Obs.Histogram.create ()) in
  ignore
    (Harness.Throughput.run_batched_latency ~domains:c.c_domains
       ~seconds:cfg.seconds ~batch ~hist:hists ~op:c.c_op ()
      : float);
  let metrics, stale_share = metered_pass ~cfg c in
  let h =
    Array.fold_left
      (fun acc h -> Obs.Histogram.merge acc h)
      (Obs.Histogram.create ()) hists
  in
  let trial_mops = List.rev c.c_trials in
  { structure = c.c_target.structure;
    impl = c.c_target.impl_name;
    backend = backend_name c.c_backend;
    domains = c.c_domains;
    read_pct = c.c_read_pct;
    mops = median trial_mops;
    trial_mops;
    rsd = rsd trial_mops;
    oversubscribed = c.c_domains > recommended;
    stale_share;
    lat_p50 = Obs.Histogram.percentile h 50.;
    lat_p95 = Obs.Histogram.percentile h 95.;
    lat_p99 = Obs.Histogram.percentile h 99.;
    lat_max = float_of_int (Obs.Histogram.max_value h);
    lat_samples = Obs.Histogram.count h;
    metrics }

let sweep ?(progress = fun _ -> ()) cfg =
  let recommended = Harness.Throughput.recommended_domains () in
  List.iter
    (fun d ->
      if d > recommended then
        progress
          (Printf.sprintf
             "WARNING: domains=%d exceeds this host's recommended_domains=%d; \
              those rows time scheduler multiplexing too and are marked \
              oversubscribed"
             d recommended))
    cfg.domain_counts;
  let cells = make_cells cfg in
  progress (Printf.sprintf "warmup: %d cells" (List.length cells));
  List.iter
    (fun c ->
      ignore
        (Harness.Throughput.run_batched ~domains:c.c_domains
           ~seconds:cfg.warmup_seconds ~batch ~op:c.c_op ()
          : float))
    cells;
  for round = 1 to cfg.trials do
    progress (Printf.sprintf "trial round %d/%d" round cfg.trials);
    List.iter
      (fun c ->
        let m =
          Harness.Throughput.run_batched ~domains:c.c_domains
            ~seconds:cfg.seconds ~batch ~op:c.c_op ()
          /. 1e6
        in
        c.c_trials <- m :: c.c_trials)
      cells
  done;
  let last_group = ref "" in
  List.map
    (fun c ->
      let group =
        Printf.sprintf "latency+metrics: %s/%s (%s)" c.c_target.structure
          c.c_target.impl_name
          (backend_name c.c_backend)
      in
      if group <> !last_group then begin
        last_group := group;
        progress group
      end;
      finish_cell ~cfg ~recommended c)
    cells

(* {1 Reporting} *)

let table rows =
  Harness.Tables.render
    ~title:
      "Native throughput per (structure, impl, backend): boxed = Simval \
       Atomic, unboxed = padded int Atomic, combining = flat combining \
       (Mops/s, median of interleaved trials; rsd = stddev/mean, '!' over \
       0.25; '*' marks oversubscribed domain counts; latency percentiles \
       from the latency pass; CAS failure rate and stale% = max-register \
       writes at or below the max read just before them, from the metered \
       pass)"
    ~header:
      [ "structure"; "impl"; "backend"; "domains"; "read%"; "Mops/s"; "rsd";
        "p50ns"; "p99ns"; "cas-fail%"; "stale%" ]
    (List.map
       (fun (r : row) ->
         [ r.structure; r.impl; r.backend;
           string_of_int r.domains ^ (if r.oversubscribed then "*" else "");
           string_of_int r.read_pct; Printf.sprintf "%.2f" r.mops;
           Printf.sprintf "%.2f%s" r.rsd
             (if r.rsd > rsd_flag_threshold then "!" else "");
           Printf.sprintf "%.0f" r.lat_p50;
           Printf.sprintf "%.0f" r.lat_p99;
           (match r.metrics with
            | None -> "-"
            | Some m ->
              Printf.sprintf "%.1f" (100. *. Obs.Metrics.cas_failure_rate m));
           (match r.stale_share with
            | None -> "-"
            | Some s -> Printf.sprintf "%.1f" (100. *. s)) ])
       rows)

let schema_version = "bench-native/v5"

let metrics_json (m : Obs.Metrics.totals) =
  let open Obs.Json_out in
  Obj
    [ ("cas_attempts", Int m.cas_attempts);
      ("cas_failures", Int m.cas_failures);
      ("cas_failure_rate", Float (Obs.Metrics.cas_failure_rate m));
      ("refresh_rounds", Int m.refresh_rounds);
      ("helps", Int m.helps);
      ("op_reads", Int m.op_reads);
      ("op_updates", Int m.op_updates);
      ("fault_yields", Int m.fault_yields);
      ("fault_gcs", Int m.fault_gcs);
      ("fault_stalls", Int m.fault_stalls);
      ("combined_ops", Int m.combined_ops);
      ("batches", Int m.batches);
      ("batch_max", Int m.batch_max);
      ("eliminations", Int m.eliminations);
      ("combiner_locks", Int m.combiner_locks) ]

let row_json (r : row) =
  let open Obs.Json_out in
  Obj
    [ ("structure", Str r.structure);
      ("impl", Str r.impl);
      ("backend", Str r.backend);
      ("domains", Int r.domains);
      ("read_pct", Int r.read_pct);
      ("mops", Float r.mops);
      ("trial_mops", List (List.map (fun m -> Float m) r.trial_mops));
      ("rsd", Float r.rsd);
      ("oversubscribed", Bool r.oversubscribed);
      ( "stale_share",
        match r.stale_share with None -> Null | Some s -> Float s );
      ( "latency_ns",
        Obj
          [ ("p50", Float r.lat_p50);
            ("p95", Float r.lat_p95);
            ("p99", Float r.lat_p99);
            ("max", Float r.lat_max);
            ("samples", Int r.lat_samples) ] );
      ("metrics", match r.metrics with None -> Null | Some m -> metrics_json m)
    ]

let to_json ?(schema = schema_version) ?(sections = []) ~cfg rows =
  let open Obs.Json_out in
  let ints xs = List (List.map (fun x -> Int x) xs) in
  Obj
    ([ ("schema", Str schema);
       ( "host",
         Obj
           [ ("ocaml", Str Sys.ocaml_version);
             ("word_size", Int Sys.word_size);
             ( "recommended_domains",
               Int (Harness.Throughput.recommended_domains ()) ) ] );
       ( "config",
         Obj
           [ ("quick", Bool cfg.quick);
             ("structure_n", Int (structure_n cfg));
             ("domain_counts", ints cfg.domain_counts);
             ("read_shares", ints cfg.read_shares);
             ("seconds_per_trial", Float cfg.seconds);
             ("warmup_seconds", Float cfg.warmup_seconds);
             ("trials", Int cfg.trials);
             ("batch", Int batch) ] ) ]
    @ sections
    @ [ ("rows", List (List.map row_json rows)) ])
