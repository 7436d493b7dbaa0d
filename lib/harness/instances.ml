(* The implementation registry: build any implementation, bound to a
   simulator session or to native atomics, as a closed instance.  All
   experiment drivers (CLI, benches, adversaries, tests) go through this
   module so every surface exercises the same code. *)

type maxreg_impl =
  | Algorithm_a
  | Algorithm_a_literal
  | Aac_maxreg
  | B1_maxreg
  | Cas_maxreg
type counter_impl = Aac_counter | Farray_counter | Naive_counter | Snapshot_counter of snapshot_impl
and snapshot_impl = Double_collect | Afek | Farray_snapshot

let maxreg_name = function
  | Algorithm_a -> "algorithm-a"
  | Algorithm_a_literal -> "algorithm-a-literal"
  | Aac_maxreg -> "aac"
  | B1_maxreg -> "aac-unbounded-b1"
  | Cas_maxreg -> "cas-loop"

let rec counter_name = function
  | Aac_counter -> "aac"
  | Farray_counter -> "farray"
  | Naive_counter -> "naive"
  | Snapshot_counter s -> "snapshot-" ^ snapshot_name s

and snapshot_name = function
  | Double_collect -> "double-collect"
  | Afek -> "afek"
  | Farray_snapshot -> "farray"

let all_maxregs = [ Algorithm_a; Aac_maxreg; B1_maxreg; Cas_maxreg ]
let all_counters =
  [ Aac_counter; Farray_counter; Naive_counter;
    Snapshot_counter Farray_snapshot ]
let all_snapshots = [ Double_collect; Afek; Farray_snapshot ]

(* {1 Construction over an arbitrary MEMORY} *)

let maxreg_over (module M : Smem.Memory_intf.MEMORY) ~n ~bound impl :
    Maxreg.Max_register.instance =
  match impl with
  | Algorithm_a ->
    let module A = Maxreg.Algorithm_a.Make (M) in
    Maxreg.Max_register.instantiate (module A) (A.create ~n ())
  | Algorithm_a_literal ->
    let module A = Maxreg.Algorithm_a.Make (M) in
    Maxreg.Max_register.instantiate
      (module A)
      (A.create ~literal_early_return:true ~n ())
  | Aac_maxreg ->
    let module A = Maxreg.Aac_maxreg.Make (M) in
    Maxreg.Max_register.instantiate (module A) (A.create ~bound)
  | B1_maxreg ->
    let module A = Maxreg.B1_maxreg.Make (M) in
    let reg = A.create () in
    { read_max = (fun () -> A.read_max reg);
      write_max = (fun ~pid v -> A.write_max reg ~pid v) }
  | Cas_maxreg ->
    let module A = Maxreg.Cas_maxreg.Make (M) in
    Maxreg.Max_register.instantiate (module A) (A.create ())

let rec counter_over (module M : Smem.Memory_intf.MEMORY) ~n ~bound impl :
    Counters.Counter.instance =
  match impl with
  | Aac_counter ->
    let module C = Counters.Aac_counter.Make (M) in
    Counters.Counter.instantiate (module C) (C.create ~n ~bound)
  | Farray_counter ->
    let module C = Counters.Farray_counter.Make (M) in
    Counters.Counter.instantiate (module C) (C.create ~n ())
  | Naive_counter ->
    let module C = Counters.Naive_counter.Make (M) in
    Counters.Counter.instantiate (module C) (C.create ~n ())
  | Snapshot_counter s ->
    counter_of_snapshot_over (module M : Smem.Memory_intf.MEMORY) ~n s

and snapshot_over (module M : Smem.Memory_intf.MEMORY) ~n impl :
    Snapshots.Snapshot.instance =
  match impl with
  | Double_collect ->
    let module S = Snapshots.Double_collect.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n ())
  | Afek ->
    let module S = Snapshots.Afek_snapshot.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n)
  | Farray_snapshot ->
    let module S = Snapshots.Farray_snapshot.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n)

and counter_of_snapshot_over (module M : Smem.Memory_intf.MEMORY) ~n impl :
    Counters.Counter.instance =
  let make (type st) (module S : Snapshots.Snapshot.S with type t = st)
      (s : st) =
    let module C = Snapshots.Counter_of_snapshot.Make (S) in
    let c = C.create ~n s in
    { Counters.Counter.increment = (fun ~pid -> C.increment c ~pid);
      read = (fun () -> C.read c) }
  in
  match impl with
  | Double_collect ->
    let module S = Snapshots.Double_collect.Make (M) in
    make (module S) (S.create ~n ())
  | Afek ->
    let module S = Snapshots.Afek_snapshot.Make (M) in
    make (module S) (S.create ~n)
  | Farray_snapshot ->
    let module S = Snapshots.Farray_snapshot.Make (M) in
    make (module S) (S.create ~n)

(* {1 Convenience constructors} *)

let maxreg_sim session ~n ~bound impl =
  maxreg_over (Smem.Sim_memory.bind session) ~n ~bound impl

let counter_sim session ~n ~bound impl =
  counter_over (Smem.Sim_memory.bind session) ~n ~bound impl

let snapshot_sim session ~n impl =
  snapshot_over (Smem.Sim_memory.bind session) ~n impl

let native : (module Smem.Memory_intf.MEMORY) = (module Smem.Atomic_memory)

let maxreg_native ~n ~bound impl = maxreg_over native ~n ~bound impl
let counter_native ~n ~bound impl = counter_over native ~n ~bound impl
let snapshot_native ~n impl = snapshot_over native ~n impl

(* {1 Unboxed snapshot construction over an arbitrary MEMORY_INT}

   The hybrid snapshot keeps its boxed vector inner nodes but is
   functorized over the leaf-register memory, so it still composes with
   any MEMORY_INT (including the counting instrumentation).  The maxreg
   and counter [Unboxed] modules are NOT functor applications — each is
   the second, in-unit instantiation of its algorithm text (DESIGN.md
   §4) — because without flambda the functor indirection costs more
   than the memory operations themselves. *)

let snapshot_int_over (module M : Smem.Memory_intf.MEMORY_INT) ~n impl :
    Snapshots.Snapshot.instance option =
  match impl with
  | Farray_snapshot ->
    let module S = Snapshots.Hybrid_snapshot.Make (Smem.Atomic_memory) (M) in
    Some (Snapshots.Snapshot.instantiate (module S) (S.create ~n))
  | Double_collect | Afek -> None

(* {1 Native fast-path constructors}

   The direct unboxed implementations (padded cells, inline Atomic
   primitives): identical algorithms and step counts to the boxed
   [_native] constructors, zero allocation on the int-valued hot paths,
   one cache line per base object.  [bound] is accepted for call-site
   uniformity with the boxed constructors; the specialized implementations
   are all unbounded. *)

let native_unboxed : (module Smem.Memory_intf.MEMORY_INT) =
  (module Smem.Unboxed_memory.Padded)

let maxreg_native_fast ~n ~bound impl : Maxreg.Max_register.instance option =
  ignore bound;
  match impl with
  | Algorithm_a ->
    let module A = Maxreg.Algorithm_a.Unboxed in
    Some (Maxreg.Max_register.instantiate (module A) (A.create ~n ()))
  | Algorithm_a_literal ->
    let module A = Maxreg.Algorithm_a.Unboxed in
    Some
      (Maxreg.Max_register.instantiate
         (module A)
         (A.create ~literal_early_return:true ~n ()))
  | B1_maxreg ->
    let module A = Maxreg.B1_maxreg.Unboxed in
    Some (Maxreg.Max_register.instantiate (module A) (A.create ()))
  | Cas_maxreg ->
    let module A = Maxreg.Cas_maxreg.Unboxed in
    Some (Maxreg.Max_register.instantiate (module A) (A.create ()))
  | Aac_maxreg -> None

let counter_native_fast ~n ~bound impl : Counters.Counter.instance option =
  ignore bound;
  match impl with
  | Farray_counter ->
    let module C = Counters.Farray_counter.Unboxed in
    Some (Counters.Counter.instantiate (module C) (C.create ~n ()))
  | Naive_counter ->
    let module C = Counters.Naive_counter.Unboxed in
    Some (Counters.Counter.instantiate (module C) (C.create ~n ()))
  | Snapshot_counter Farray_snapshot ->
    let module S =
      Snapshots.Hybrid_snapshot.Make (Smem.Atomic_memory)
        (Smem.Unboxed_memory.Padded)
    in
    let module C = Snapshots.Counter_of_snapshot.Make (S) in
    let c = C.create ~n (S.create ~n) in
    Some
      { Counters.Counter.increment = (fun ~pid -> C.increment c ~pid);
        read = (fun () -> C.read c) }
  | Aac_counter | Snapshot_counter (Double_collect | Afek) -> None

let snapshot_native_fast ~n impl = snapshot_int_over native_unboxed ~n impl

(* {1 Metered (instrumented) native constructors}

   The same unboxed fast-path implementations, with contention
   observability wired in: every instance records [Op_update] per
   high-level update (sharded by the calling pid), and the
   implementations with interesting write contention (CAS retry loops,
   double-refresh propagation, helping) additionally record CAS
   attempts/failures, refresh rounds and helping events through their
   [_metered] entry points.  [Op_read] is NOT recorded here: the [read]
   closures carry no pid, and folding all readers onto one shard would
   both lose counts and create exactly the cross-domain cache-line
   traffic the shards exist to avoid — record it at the call site, where
   the domain is known (bin/bench.exe does).  Passing
   [Obs.Metrics.disabled] reduces every record site to an immediate-bool
   branch; the overhead guard in test_obs.ml pins that the disabled path
   allocates nothing and tracks the uninstrumented constructors. *)

let meter_maxreg ~metrics (i : Maxreg.Max_register.instance) :
    Maxreg.Max_register.instance =
  { i with
    write_max =
      (fun ~pid v ->
        Obs.Metrics.incr metrics ~domain:pid Obs.Metrics.Op_update;
        i.write_max ~pid v) }

let meter_counter ~metrics (i : Counters.Counter.instance) :
    Counters.Counter.instance =
  { i with
    increment =
      (fun ~pid ->
        Obs.Metrics.incr metrics ~domain:pid Obs.Metrics.Op_update;
        i.increment ~pid) }

let maxreg_native_metered ~metrics ~n ~bound impl :
    Maxreg.Max_register.instance option =
  (* a disabled handle means "no instrumentation": hand out the
     uninstrumented instance itself — zero overhead by construction *)
  if not (Obs.Metrics.enabled metrics) then maxreg_native_fast ~n ~bound impl
  else
  match impl with
  | Algorithm_a | Algorithm_a_literal ->
    let module A = Maxreg.Algorithm_a.Unboxed in
    let reg =
      A.create ~literal_early_return:(impl = Algorithm_a_literal) ~n ()
    in
    Some
      (meter_maxreg ~metrics
         { read_max = (fun () -> A.read_max reg);
           write_max = (fun ~pid v -> A.write_max_metered reg ~metrics ~pid v) })
  | Cas_maxreg ->
    let module A = Maxreg.Cas_maxreg.Unboxed in
    let reg = A.create () in
    Some
      (meter_maxreg ~metrics
         { read_max = (fun () -> A.read_max reg);
           write_max = (fun ~pid v -> A.write_max_metered reg ~metrics ~pid v) })
  | B1_maxreg ->
    (* switch writes are idempotent 0->1 stores, no CAS to meter: op
       counts only *)
    Option.map (meter_maxreg ~metrics) (maxreg_native_fast ~n ~bound impl)
  | Aac_maxreg -> None

let counter_native_metered ~metrics ~n ~bound impl :
    Counters.Counter.instance option =
  if not (Obs.Metrics.enabled metrics) then counter_native_fast ~n ~bound impl
  else
  match impl with
  | Farray_counter ->
    let module C = Counters.Farray_counter.Unboxed in
    let c = C.create ~n () in
    Some
      (meter_counter ~metrics
         { increment = (fun ~pid -> C.increment_metered c ~metrics ~pid);
           read = (fun () -> C.read c) })
  | Naive_counter | Snapshot_counter _ | Aac_counter ->
    (* naive has no CAS (single-writer registers); the snapshot/AAC
       constructions have no unboxed fast path or no int specialization —
       meter whatever fast path exists with op counts *)
    Option.map (meter_counter ~metrics) (counter_native_fast ~n ~bound impl)

(* {1 Flat-combining native constructors}

   The unboxed fast-path implementations behind a {!Smem.Combine} arena
   (see {!Combining}): contended updates are batched — one tree
   traversal per combined batch — and stale WriteMax calls are
   eliminated against the root.  Returns the arena alongside the
   instance so measurement drivers can read {!Smem.Combine.stats}
   (flushed into Obs metrics via [record_combine_stats]).  [domains] is
   the arena's slot count: every [pid] passed to an operation must be in
   [0 .. domains-1].  [None] exactly for the implementations with no
   combining layer: the AAC constructions (no unboxed specialization),
   B1 (idempotent switch writes — no per-op propagation to batch), the
   literal-line-16 ablation (kept pure as the paper-faithful bug
   exhibit), and cas-loop and the naive counter: a one-CAS write and a
   one-store increment leave the arena no traversal to save, and on no
   multi-domain bench cell did combining beat their plain backends by
   1.10x (EXPERIMENTS.md). *)

let maxreg_native_combining ~n ~domains ~bound impl :
    (Maxreg.Max_register.instance * Smem.Combine.t) option =
  ignore bound;
  match impl with
  | Algorithm_a ->
    let t = Combining.Alg_a.create ~n ~domains () in
    Some
      ( { Maxreg.Max_register.read_max = (fun () -> Combining.Alg_a.read_max t);
          write_max = (fun ~pid v -> Combining.Alg_a.write_max t ~pid v) },
        Combining.Alg_a.arena t )
  | Algorithm_a_literal | B1_maxreg | Aac_maxreg | Cas_maxreg -> None

let counter_native_combining ~n ~domains ~bound impl :
    (Counters.Counter.instance * Smem.Combine.t) option =
  ignore bound;
  match impl with
  | Farray_counter ->
    let t = Combining.Farray_c.create ~n ~domains () in
    Some
      ( { Counters.Counter.increment =
            (fun ~pid -> Combining.Farray_c.increment t ~pid);
          read = (fun () -> Combining.Farray_c.read t) },
        Combining.Farray_c.arena t )
  | Aac_counter | Naive_counter | Snapshot_counter _ -> None

(* Metered combining: [Op_update] per update via the usual wrapper, CAS
   and refresh counts recorded by the [_metered] apply under the
   combiner's shard.  A disabled handle returns the uninstrumented
   combining instance, mirroring the [_native_metered] constructors. *)

let maxreg_native_combining_metered ~metrics ~n ~domains ~bound impl :
    (Maxreg.Max_register.instance * Smem.Combine.t) option =
  if not (Obs.Metrics.enabled metrics) then
    maxreg_native_combining ~n ~domains ~bound impl
  else
    match impl with
    | Algorithm_a ->
      let t = Combining.Alg_a.create_metered ~metrics ~n ~domains () in
      Some
        ( meter_maxreg ~metrics
            { read_max = (fun () -> Combining.Alg_a.read_max t);
              write_max = (fun ~pid v -> Combining.Alg_a.write_max t ~pid v) },
          Combining.Alg_a.arena t )
    | Algorithm_a_literal | B1_maxreg | Aac_maxreg | Cas_maxreg -> None

let counter_native_combining_metered ~metrics ~n ~domains ~bound impl :
    (Counters.Counter.instance * Smem.Combine.t) option =
  if not (Obs.Metrics.enabled metrics) then
    counter_native_combining ~n ~domains ~bound impl
  else
    match impl with
    | Farray_counter ->
      let t = Combining.Farray_c.create_metered ~metrics ~n ~domains () in
      Some
        ( meter_counter ~metrics
            { increment = (fun ~pid -> Combining.Farray_c.increment t ~pid);
              read = (fun () -> Combining.Farray_c.read t) },
          Combining.Farray_c.arena t )
    | Aac_counter | Naive_counter | Snapshot_counter _ -> None

(* {1 Tradeoff-dial constructors}

   The Dial_counter / Dial_maxreg family (DESIGN.md §14) is keyed by a
   {!Treeprim.Dial.t} rather than a [counter_impl] case: a dial point is
   a parameter of one construction, not a new algorithm, and threading
   it through the impl enums would force every all_counters consumer
   (liveness matrices, DPOR sweeps, repro experiments) through four more
   rows.  The boxed [_over]/[_sim] constructors run the family under
   Memsim, DPOR and the fault layer; the [_native_dial] ones are the
   zero-alloc unboxed twins.  The counter's [_metered] variant (the dial
   sweep's metered pass) mirrors the other native constructors: a
   disabled handle returns the uninstrumented instance. *)

let counter_dial_over (module M : Smem.Memory_intf.MEMORY) ~n dial :
    Counters.Counter.instance =
  let module C = Counters.Dial_counter.Make (M) in
  Counters.Counter.instantiate (module C) (C.create ~n ~dial ())

let counter_dial_sim session ~n dial =
  counter_dial_over (Smem.Sim_memory.bind session) ~n dial

let maxreg_dial_over (module M : Smem.Memory_intf.MEMORY) ~n dial :
    Maxreg.Max_register.instance =
  let module A = Maxreg.Dial_maxreg.Make (M) in
  Maxreg.Max_register.instantiate (module A) (A.create ~n ~dial ())

let maxreg_dial_sim session ~n dial =
  maxreg_dial_over (Smem.Sim_memory.bind session) ~n dial

let counter_native_dial ~n dial : Counters.Counter.instance =
  let module C = Counters.Dial_counter.Unboxed in
  Counters.Counter.instantiate (module C) (C.create ~n ~dial ())

let maxreg_native_dial ~n dial : Maxreg.Max_register.instance =
  let module A = Maxreg.Dial_maxreg.Unboxed in
  Maxreg.Max_register.instantiate (module A) (A.create ~n ~dial ())

let counter_native_dial_metered ~metrics ~n dial :
    Counters.Counter.instance =
  if not (Obs.Metrics.enabled metrics) then counter_native_dial ~n dial
  else
    let module C = Counters.Dial_counter.Unboxed in
    let c = C.create ~n ~dial () in
    meter_counter ~metrics
      { increment = (fun ~pid -> C.increment_metered c ~metrics ~pid);
        read = (fun () -> C.read c) }
