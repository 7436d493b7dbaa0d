(* Tests of the flat-combining layer: Smem.Combine arena semantics,
   equivalence of the combining backends and the plain unboxed natives
   (through the conformance table), zero-allocation
   assertions on the uncontended fast paths, and multi-domain exactness.
   Linearizability of combining histories under chaos lives in
   test_chaos.ml; this file is about sequential semantics and the
   fast-path cost model. *)

module C = Smem.Combine
module AC = Harness.Combining.Alg_a
module FC = Harness.Combining.Farray_c

(* {1 Arena semantics} *)

let test_create_validates () =
  Alcotest.check_raises "domains = 0 refused"
    (Invalid_argument "Combine.create: domains out of [1, 62]") (fun () ->
      ignore (C.create ~domains:0 ~combine:( + ) () : C.t));
  Alcotest.check_raises "domains = 63 refused"
    (Invalid_argument "Combine.create: domains out of [1, 62]") (fun () ->
      ignore (C.create ~domains:(C.max_domains + 1) ~combine:( + ) () : C.t));
  let t = C.create ~domains:C.max_domains ~combine:( + ) () in
  Alcotest.(check int) "domains accessor" C.max_domains (C.domains t)

let test_submit_validates () =
  let t = C.create ~domains:2 ~combine:( + ) () in
  let apply _ _ = () in
  Alcotest.check_raises "sentinel op refused"
    (Invalid_argument "Combine.submit: op is the empty sentinel") (fun () ->
      C.submit t ~domain:0 ~apply min_int);
  Alcotest.check_raises "domain out of range refused"
    (Invalid_argument "Combine.submit: bad domain") (fun () ->
      C.submit t ~domain:2 ~apply 1)

let test_single_domain_bypass () =
  let t = C.create ~domains:1 ~combine:max () in
  let applied = ref [] in
  let apply d op = applied := (d, op) :: !applied in
  C.submit t ~domain:0 ~apply 7;
  C.submit t ~domain:0 ~apply 9;
  Alcotest.(check (list (pair int int)))
    "ops applied directly, in order" [ (0, 7); (0, 9) ]
    (List.rev !applied);
  (* the bypass takes no lock and records nothing *)
  Alcotest.(check int) "no lock acquisitions" 0 (C.stats t).C.lock_acquisitions;
  Alcotest.(check int) "no batches" 0 (C.stats t).C.batches

let test_solo_submit_stats () =
  let t = C.create ~domains:2 ~combine:max () in
  let total = ref 0 in
  let apply _ op = total := !total + op in
  C.submit t ~domain:0 ~apply 5;
  C.submit t ~domain:1 ~apply 6;
  Alcotest.(check int) "both ops applied" 11 !total;
  let s = C.stats t in
  Alcotest.(check int) "one lock acquisition per solo submit" 2
    s.C.lock_acquisitions;
  (* a drain of one op is not a batch: batches/combined_ops count only
     genuine combining (>= 2 ops per drain) *)
  Alcotest.(check int) "no batches solo" 0 s.C.batches;
  Alcotest.(check int) "no combined ops solo" 0 s.C.combined_ops;
  Alcotest.(check int) "batch_max stays 0" 0 s.C.batch_max

let test_elimination_and_reset () =
  let t = C.create ~domains:2 ~combine:max () in
  C.record_elimination t ~domain:0;
  C.record_elimination t ~domain:1;
  Alcotest.(check int) "eliminations tallied" 2 (C.stats t).C.eliminations;
  C.reset_stats t;
  Alcotest.(check bool) "reset zeroes everything" true
    (C.stats t = C.zero_stats)

(* {1 Differential: combining vs plain unboxed}

   The combining backends claim "same structure, different submission
   protocol"; on sequential random mixes of reads and updates they must
   meet the same sequential spec as the plain unboxed natives.  The
   plain and combining rows of the conformance table (conformance.ml)
   run the same seeded operations; the arena is sized for n domains and
   driven from one thread with rotating pids, so the solo-combiner drain
   path (lock, publish-free apply) is exercised for every pid, not just
   the bypass. *)

let combining_equals_plain kind structure =
  Conformance.agree
    (structure ^ ": combining = plain")
    (Conformance.find kind structure [ "native_fast"; "native_combining" ])

(* {1 Zero allocation on the fast paths}

   The uncontended paths must allocate nothing per op: the domains = 1
   arena bypass, the solo-combiner drain (lock held, no waiters), and
   algorithm A's elimination shortcut.  Same minor-heap-delta idiom as
   test_unboxed.ml. *)

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let ops = 10_000
let slack = 256.0

let check_alloc_free name f =
  ignore (minor_delta f : float) (* warm up: force any one-time allocation *);
  let delta = minor_delta f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d ops allocate <= %.0f words (got %.0f)" name ops
       slack delta)
    true (delta <= slack)

let test_alloc_free_bypass () =
  let reg = AC.create ~n:1 ~domains:1 () in
  let v0 = ref 0 in
  check_alloc_free "algorithm-a combining write_max (bypass)" (fun () ->
      let base = !v0 in
      for i = 1 to ops do
        AC.write_max reg ~pid:0 (base + i)
      done;
      v0 := base + ops);
  check_alloc_free "algorithm-a combining read_max" (fun () ->
      for _ = 1 to ops do
        ignore (AC.read_max reg : int)
      done);
  let cnt = FC.create ~n:1 ~domains:1 () in
  check_alloc_free "farray combining increment (bypass)" (fun () ->
      for _ = 1 to ops do
        FC.increment cnt ~pid:0
      done);
  check_alloc_free "farray combining read" (fun () ->
      for _ = 1 to ops do
        ignore (FC.read cnt : int)
      done)

let test_alloc_free_solo_combiner () =
  (* domains = 2, driven single-threaded: every submit takes the lock and
     drains alone — the whole arena protocol minus waiting *)
  let cnt = FC.create ~n:2 ~domains:2 () in
  check_alloc_free "farray combining increment (solo drain)" (fun () ->
      for i = 1 to ops do
        FC.increment cnt ~pid:(i land 1)
      done);
  let reg = AC.create ~n:2 ~domains:2 () in
  let a0 = ref 0 in
  check_alloc_free "algorithm-a combining write_max (solo drain)" (fun () ->
      let base = !a0 in
      for i = 1 to ops do
        AC.write_max reg ~pid:(i land 1) (base + i)
      done;
      a0 := base + ops)

let test_alloc_free_elimination () =
  let reg = AC.create ~n:2 ~domains:2 () in
  AC.write_max reg ~pid:0 1_000_000;
  check_alloc_free "algorithm-a combining elimination" (fun () ->
      for i = 1 to ops do
        AC.write_max reg ~pid:(i land 1) i
      done);
  Alcotest.(check bool) "eliminations actually counted" true
    ((C.stats (AC.arena reg)).C.eliminations >= ops)

(* {1 Multi-domain exactness}

   Real parallelism through the arena: counter totals must be exact and
   max registers must end at the true maximum, with the combiner stats
   accounting for every update (combined + solo drains + eliminations). *)

let domains_used = 4
let per_domain = 20_000

let test_parallel_counter_exact () =
  let cnt = FC.create ~n:domains_used ~domains:domains_used () in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains_used (fun pid ->
        for _ = 1 to per_domain do
          FC.increment cnt ~pid
        done)
  in
  Alcotest.(check int) "farray combining total exact"
    (domains_used * per_domain) (FC.read cnt)

let test_parallel_maxreg_exact () =
  let reg = AC.create ~n:domains_used ~domains:domains_used () in
  let monotone = Atomic.make true in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains_used (fun pid ->
        if pid = 0 then begin
          let last = ref 0 in
          for _ = 1 to per_domain do
            let v = AC.read_max reg in
            if v < !last then Atomic.set monotone false;
            last := v
          done
        end
        else
          for v = 1 to per_domain do
            AC.write_max reg ~pid ((v * domains_used) + pid)
          done)
  in
  Alcotest.(check bool) "combining reads monotone" true (Atomic.get monotone);
  Alcotest.(check int) "combining final maximum"
    ((per_domain * domains_used) + (domains_used - 1))
    (AC.read_max reg)

(* {1 Parking backoff (scripted clock)}

   The park loop must sleep yield_s, 2*yield_s, 4*yield_s, ... capped at
   yield_s * 2^6, re-checking slot and lock before every sleep.  The old
   code slept a constant 50 µs and reset the spin budget after every
   sleep, so a long-parked domain reburned its whole spin allowance
   between naps.  A scripted [~sleep] records the exact durations the
   arena asks for — no wall clock involved. *)

let test_create_validates_yield () =
  Alcotest.check_raises "yield_s = 0 refused"
    (Invalid_argument "Combine.create: non-positive yield_s") (fun () ->
      ignore (C.create ~yield_s:0. ~domains:2 ~combine:( + ) () : C.t));
  Alcotest.check_raises "negative yield_s refused"
    (Invalid_argument "Combine.create: non-positive yield_s") (fun () ->
      ignore (C.create ~yield_s:(-1e-6) ~domains:2 ~combine:( + ) () : C.t))

let test_backoff_doubles_and_caps () =
  let y = 0.001 in
  (* written only by the parked domain (the main thread below) *)
  let sleeps = ref [] in
  let release = Atomic.make false in
  let in_apply = Atomic.make false in
  let sleep s =
    sleeps := s :: !sleeps;
    if List.length !sleeps >= 10 then Atomic.set release true
  in
  let t = C.create ~spin:16 ~yield_s:y ~sleep ~domains:2 ~combine:max () in
  let total = Atomic.make 0 in
  (* the apply runs while holding the combiner lock; gating it keeps the
     lock held until the parked domain has recorded enough sleeps *)
  let gate_apply _ op =
    Atomic.set in_apply true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    ignore (Atomic.fetch_and_add total op : int)
  in
  let d = Domain.spawn (fun () -> C.submit t ~domain:0 ~apply:gate_apply 1) in
  while not (Atomic.get in_apply) do
    Domain.cpu_relax ()
  done;
  (* publishes while the lock is held inside the gated apply: must park *)
  C.submit t ~domain:1 ~apply:gate_apply 2;
  Domain.join d;
  let recorded = List.rev !sleeps in
  Alcotest.(check bool) "parked at least 10 times" true
    (List.length recorded >= 10);
  List.iteri
    (fun i s ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "sleep %d doubles then caps" i)
        (y *. float_of_int (1 lsl min i 6))
        s)
    recorded;
  Alcotest.(check int) "both ops applied" 3 (Atomic.get total)

let () =
  Alcotest.run "combining"
    [ ( "arena",
        [ Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "submit validates" `Quick test_submit_validates;
          Alcotest.test_case "single-domain bypass" `Quick
            test_single_domain_bypass;
          Alcotest.test_case "solo submit stats" `Quick test_solo_submit_stats;
          Alcotest.test_case "elimination tally and reset" `Quick
            test_elimination_and_reset;
          Alcotest.test_case "yield_s validated" `Quick
            test_create_validates_yield;
          Alcotest.test_case "parking backoff doubles then caps" `Quick
            test_backoff_doubles_and_caps ] );
      ( "differential",
        [ combining_equals_plain Conformance.Maxreg "algorithm-a";
          combining_equals_plain Conformance.Counter "farray" ] );
      ( "allocation",
        [ Alcotest.test_case "arena bypass allocates nothing" `Quick
            test_alloc_free_bypass;
          Alcotest.test_case "solo combiner allocates nothing" `Quick
            test_alloc_free_solo_combiner;
          Alcotest.test_case "elimination allocates nothing" `Quick
            test_alloc_free_elimination ] );
      ( "parallel",
        [ Alcotest.test_case "counters exact under 4 domains" `Quick
            test_parallel_counter_exact;
          Alcotest.test_case "max registers exact under 4 domains" `Quick
            test_parallel_maxreg_exact ] ) ]
