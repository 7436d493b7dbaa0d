type allow =
  | Dir of string
  | Module_path of string list

type r3_mode = Body | Loops

type r3_target = {
  qual : string list;
  mode : r3_mode;
}

type t = {
  scope_dirs : string list;
  r1_banned : string list;
  r1_allow : allow list;
  r2_dirs : string list;
  r2_reads : string list;
  r2_cas : string list;
  r3_targets : r3_target list;
  r4_dirs : string list;
  r4_allow : string list;
}

(* The repo's discipline, as data.  Growing the allowlists is a reviewed
   change to this file, not an edit at the violation site. *)

let default =
  { (* R1-R3 lint the library and executable trees; test/ (fixtures,
       qcheck harnesses) and examples/ (standalone native demos) are out
       of scope. *)
    scope_dirs = [ "lib"; "bin"; "bench" ];
    (* R1: the concurrency and representation escape hatches.  Everything
       outside the allowlist must reach shared memory through the
       MEMORY/MEMORY_GEN signatures (lib/smem), the observability layer,
       or the throughput harness. *)
    r1_banned = [ "Atomic"; "Obj"; "Domain"; "Mutex"; "Condition"; "Semaphore" ];
    r1_allow =
      [ (* the memory layer itself: boxed/unboxed/counting/sim backends,
           the Obj-built Padded blocks, Lazy_cell, and the
           flat-combining arena (Combine: publication slots, combiner
           lock, single-writer stat cells) *)
        Dir "lib/smem";
        (* single-writer metric shards and their padded cells *)
        Dir "lib/obs";
        (* domain spawning, stop flags and publish slots of the
           measurement harness *)
        Dir "lib/harness/throughput.ml";
        (* chaos injection primitives: cpu_relax storms, DLS-keyed
           deterministic dice, domain spawning and the shared stamp
           clock — submodule-granular so raw atomics anywhere else in
           chaos.ml still get flagged *)
        Module_path [ "Chaos"; "Inject" ] ]
      (* the unboxed instantiations' memory module: each twin unit's
         [Unboxed.M] (lib/smem/unboxed.ml-prelude) applies the Atomic
         primitives directly — a functor indirection would cost more
         than the operations.  Allowlisted at that submodule alone, so
         the algorithm text (X.ml-body, compiled into both [Make] and
         [Unboxed]) and the unboxed-only entry points never touch
         Atomic themselves *)
      @ List.map
          (fun twin -> Module_path [ twin; "Unboxed"; "M" ])
          [ "Algorithm_a"; "B1_maxreg"; "Cas_maxreg"; "Dial_maxreg"; "Farray";
            "Farray_counter"; "Naive_counter"; "Dial_counter"; "Propagate" ];
    (* R2: the libraries holding the paper's algorithms.  An unbounded
       loop there that never re-reads shared memory can spin forever on
       stale state — the syntactic complement of E9's liveness audit. *)
    r2_dirs = [ "lib/maxreg"; "lib/counters"; "lib/treeprim"; "lib/farray" ];
    r2_reads =
      [ "read"; "get"; "read_max"; "read_leaf"; "child_value"; "scan";
        "collect"; "fetch_and_add" ];
    r2_cas = [ "cas"; "compare_and_set"; "compare_exchange"; "fetch_and_add" ];
    (* R3: the zero-allocation claims pinned statically.  [Body] checks a
       whole function body; [Loops] checks only while/for bodies inside
       the function (measurement epilogues may allocate, timed loops may
       not).  The latency runner is deliberately absent: its timed loop
       boxes one int64 per batch by design (see throughput.mli). *)
    r3_targets =
      [ { qual = [ "Metrics"; "add" ]; mode = Body };
        { qual = [ "Metrics"; "incr" ]; mode = Body };
        { qual = [ "Algorithm_a"; "Unboxed"; "read_max" ]; mode = Body };
        { qual = [ "Algorithm_a"; "Unboxed"; "write_max" ]; mode = Body };
        { qual = [ "Algorithm_a"; "Unboxed"; "write_max_metered" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "Unboxed"; "read_max" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "Unboxed"; "cas_loop" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "Unboxed"; "cas_loop_metered" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "Unboxed"; "write_max" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "Unboxed"; "write_max_metered" ]; mode = Body };
        { qual = [ "B1_maxreg"; "Unboxed"; "switch_set" ]; mode = Body };
        { qual = [ "B1_maxreg"; "Unboxed"; "write" ]; mode = Body };
        { qual = [ "B1_maxreg"; "Unboxed"; "read" ]; mode = Body };
        { qual = [ "Farray"; "Unboxed"; "read" ]; mode = Body };
        { qual = [ "Farray"; "Unboxed"; "read_leaf" ]; mode = Body };
        { qual = [ "Farray"; "Unboxed"; "update" ]; mode = Body };
        { qual = [ "Farray"; "Unboxed"; "update_metered" ]; mode = Body };
        { qual = [ "Naive_counter"; "Unboxed"; "increment" ]; mode = Body };
        { qual = [ "Naive_counter"; "Unboxed"; "read" ]; mode = Body };
        { qual = [ "Farray_counter"; "Unboxed"; "increment" ]; mode = Body };
        { qual = [ "Farray_counter"; "Unboxed"; "increment_metered" ];
          mode = Body };
        { qual = [ "Farray_counter"; "Unboxed"; "read" ]; mode = Body };
        { qual = [ "Dial_counter"; "Unboxed"; "increment" ]; mode = Body };
        { qual = [ "Dial_counter"; "Unboxed"; "increment_metered" ];
          mode = Body };
        { qual = [ "Dial_counter"; "Unboxed"; "read" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "Unboxed"; "read_max" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "Unboxed"; "write_max" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "Unboxed"; "write_max_metered" ];
          mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "child_value" ]; mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "refresh" ]; mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "propagate" ]; mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "refresh_metered" ]; mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "propagate_metered_live" ];
          mode = Body };
        { qual = [ "Propagate"; "Unboxed"; "propagate_metered" ]; mode = Body };
        { qual = [ "Throughput"; "run_alone" ]; mode = Loops };
        { qual = [ "Throughput"; "run_batched" ]; mode = Loops };
        (* the flat-combining arena hot paths: submit (fast path and
           publish), the combiner's drain, and the stat recorders —
           every one must stay allocation-free or the arena taxes the
           very operations it batches *)
        { qual = [ "Combine"; "bump" ]; mode = Body };
        { qual = [ "Combine"; "bump_max" ]; mode = Body };
        { qual = [ "Combine"; "record_elimination" ]; mode = Body };
        { qual = [ "Combine"; "scan_mask" ]; mode = Body };
        { qual = [ "Combine"; "gather" ]; mode = Body };
        { qual = [ "Combine"; "clear_slots" ]; mode = Body };
        { qual = [ "Combine"; "popcount" ]; mode = Body };
        { qual = [ "Combine"; "apply_batch" ]; mode = Body };
        { qual = [ "Combine"; "wait_or_combine" ]; mode = Body };
        { qual = [ "Combine"; "submit" ]; mode = Body } ];
    (* R4: every library module pins its public surface.  Allowlist:
       signature-only modules (nothing to hide) and executable entry
       modules living next to library code. *)
    r4_dirs = [ "lib"; "bench" ];
    r4_allow = [ "lib/smem/memory_intf.ml"; "bench/main.ml" ] }
