(** The implementation registry: build any implementation, bound to a
    simulator session or to native atomics, as a closed instance.  All
    experiment drivers (CLI, benches, adversaries, tests) construct
    implementations through this module. *)

type maxreg_impl =
  | Algorithm_a           (** the paper's contribution (repaired line 16) *)
  | Algorithm_a_literal   (** verbatim line 16 — not linearizable! *)
  | Aac_maxreg            (** Aspnes–Attiya–Censor bounded, reads/writes only *)
  | B1_maxreg             (** AAC unbounded over a lazy B1 switch tree *)
  | Cas_maxreg            (** CAS retry loop, not wait-free *)

type counter_impl =
  | Aac_counter
  | Farray_counter
  | Naive_counter
  | Snapshot_counter of snapshot_impl  (** via Corollary 1's reduction *)

and snapshot_impl = Double_collect | Afek | Farray_snapshot

val maxreg_name : maxreg_impl -> string
val counter_name : counter_impl -> string
val snapshot_name : snapshot_impl -> string

val all_maxregs : maxreg_impl list
val all_counters : counter_impl list
val all_snapshots : snapshot_impl list

(** {1 Construction over an arbitrary MEMORY} *)

val maxreg_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance

val counter_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance

val snapshot_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Simulator-bound constructors}

    Objects are allocated into the session's store (the initial
    configuration); operations issued during a scheduler run become
    adversary-controllable events. *)

val maxreg_sim :
  Memsim.Session.t -> n:int -> bound:int -> maxreg_impl ->
  Maxreg.Max_register.instance

val counter_sim :
  Memsim.Session.t -> n:int -> bound:int -> counter_impl ->
  Counters.Counter.instance

val snapshot_sim :
  Memsim.Session.t -> n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Native (Atomic) constructors, for Domain-parallel runs} *)

val native : (module Smem.Memory_intf.MEMORY)

val maxreg_native :
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance

val counter_native :
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance

val snapshot_native : n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Unboxed snapshot construction over an arbitrary MEMORY_INT}

    The hybrid snapshot keeps boxed vector inner nodes but is functorized
    over its leaf-register memory, so it composes with any MEMORY_INT.
    [None] when the snapshot has no int-leaf specialization (double-collect
    and Afek are vector-valued throughout).  The maxreg and counter
    [Unboxed] instantiations are deliberately not functor applications —
    see {!Maxreg.Algorithm_a.Unboxed} etc. — so they have no [_int_over]
    constructor; use the [_native_fast] ones below. *)

val snapshot_int_over :
  (module Smem.Memory_intf.MEMORY_INT) ->
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance option

(** {1 Native fast-path constructors}

    The direct unboxed implementations (padded cells, inline Atomic
    primitives): identical algorithms and step counts to the boxed
    [_native] constructors, but the int-valued hot paths allocate nothing
    and every base object owns its cache line.  [None] when the
    implementation has no specialization (the AAC constructions are
    value-recursive over Simval and stay boxed).  [bound] is accepted for
    call-site uniformity; the specialized implementations are all
    unbounded. *)

val native_unboxed : (module Smem.Memory_intf.MEMORY_INT)

val maxreg_native_fast :
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance option

val counter_native_fast :
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance option

val snapshot_native_fast :
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance option

(** {1 Metered (instrumented) native constructors}

    The unboxed fast-path implementations with contention observability:
    [Op_update] per high-level update for every instance, plus CAS
    attempts/failures, propagate refresh rounds and helping events for
    the implementations that have them (algorithm-a, cas-loop, farray).
    Record sites shard by calling pid; [Op_read] is deliberately not
    recorded (the [read] closures carry no pid — record it at the call
    site, where the domain is known).  With a disabled handle
    ({!Obs.Metrics.disabled}) these constructors return the
    uninstrumented [_native_fast] instance itself — the no-op mode has
    zero overhead by construction, and even the [_metered] entry points
    called directly degrade to one inlined field test (see the
    zero-allocation guard in test_obs.ml).  [None] exactly when
    [_native_fast] has no specialization. *)

val maxreg_native_metered :
  metrics:Obs.Metrics.t ->
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance option

val counter_native_metered :
  metrics:Obs.Metrics.t ->
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance option

(** {1 Flat-combining native constructors}

    The unboxed fast-path implementations behind a {!Smem.Combine}
    flat-combining arena (see {!Combining} and DESIGN.md §12): the
    uncontended fast path stays the plain backend's cost, contended
    updates batch into one tree traversal per combined batch, and stale
    WriteMax calls eliminate against the monotone root.  The arena is
    returned alongside the instance so drivers can read
    {!Smem.Combine.stats}.  [domains] sizes the arena: every [pid]
    passed to an operation must be in [0 .. domains-1] (with
    [domains = 1] the arena is bypassed).  [None] for implementations
    with no combining layer (AAC, B1, the literal-line-16 ablation,
    cas-loop and the naive counter).

    The [_metered] variants add [Op_update] per update and route the
    combiner's apply through the [_metered] structure entry points (CAS
    and refresh counts under the combiner's shard); with a disabled
    handle they return the uninstrumented combining instance.  Combining
    stats always live in the arena — flush them with
    {!Obs.Metrics.record_combine_stats} once per run. *)

val maxreg_native_combining :
  n:int -> domains:int -> bound:int -> maxreg_impl ->
  (Maxreg.Max_register.instance * Smem.Combine.t) option

val counter_native_combining :
  n:int -> domains:int -> bound:int -> counter_impl ->
  (Counters.Counter.instance * Smem.Combine.t) option

val maxreg_native_combining_metered :
  metrics:Obs.Metrics.t ->
  n:int -> domains:int -> bound:int -> maxreg_impl ->
  (Maxreg.Max_register.instance * Smem.Combine.t) option

val counter_native_combining_metered :
  metrics:Obs.Metrics.t ->
  n:int -> domains:int -> bound:int -> counter_impl ->
  (Counters.Counter.instance * Smem.Combine.t) option

(** {1 Tradeoff-dial constructors}

    The {!Counters.Dial_counter} / {!Maxreg.Dial_maxreg} family, keyed
    by a {!Treeprim.Dial.t} dial point rather than an impl enum case (a
    dial is a parameter of one construction, not a new algorithm).  The
    boxed [_over]/[_sim] constructors run every dial point under Memsim,
    DPOR and the fault layer; [_native_dial] builds the zero-alloc
    unboxed twin, and [_metered] mirrors the other native constructors
    (a disabled handle returns the uninstrumented instance). *)

val counter_dial_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val counter_dial_sim :
  Memsim.Session.t -> n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val maxreg_dial_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance

val maxreg_dial_sim :
  Memsim.Session.t -> n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance

val counter_native_dial :
  n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val maxreg_native_dial :
  n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance

val counter_native_dial_metered :
  metrics:Obs.Metrics.t ->
  n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val maxreg_native_dial_metered :
  metrics:Obs.Metrics.t ->
  n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance
