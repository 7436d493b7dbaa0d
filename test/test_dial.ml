(* The tradeoff-dial family (Dial_counter / Dial_maxreg): block geometry
   unit pins, differential equivalence against the naive baseline at
   every dial point (boxed, over Memsim), boxed-vs-unboxed parity (via
   the conformance table), 4-domain exactness of the unboxed twins, zero-allocation checks, and
   a fault-plan run with linearizability of the surviving history.

   The family's point is that f1 and fn are the two structures the repo
   already had (f-array counter, naive counter) and flog/fsqrt are the
   interior of Theorem 1's frontier — so the tests quantify over
   [Treeprim.Dial.all] everywhere rather than picking a favourite. *)

open Memsim
module D = Treeprim.Dial

(* {1 Geometry} *)

let test_dial_geometry () =
  (* widths at n = 64: the four dial points of the docs and COSTS.md *)
  List.iter
    (fun (dial, w) ->
      Alcotest.(check int) (D.name dial ^ " width @64") w (D.width ~n:64 dial))
    [ (D.F_one, 1); (D.F_log, 6); (D.F_sqrt, 8); (D.F_n, 64) ];
  (* block_size * width covers n, and never overshoots by a full block *)
  List.iter
    (fun n ->
      List.iter
        (fun dial ->
          let f = D.width ~n dial in
          let b = D.block_size ~n dial in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d: f*b >= n" (D.name dial) n)
            true
            (f * b >= n);
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d: (f-1)*b < n" (D.name dial) n)
            true
            (((f - 1) * b) < n);
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d: 1 <= f <= n" (D.name dial) n)
            true
            (1 <= f && f <= n))
        D.all)
    [ 1; 2; 3; 7; 8; 64; 100 ];
  (* name/of_string round-trip *)
  List.iter
    (fun dial ->
      Alcotest.(check bool)
        (D.name dial ^ " round-trips") true
        (D.of_string (D.name dial) = Some dial))
    D.all;
  Alcotest.(check bool) "unknown name rejected" true (D.of_string "f2" = None);
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Dial.width: n must be > 0") (fun () ->
      ignore (D.width ~n:0 D.F_log : int))

(* {1 Differential: dial counter = naive counter, at every dial}

   op = (pid, v): v < 0 is a read, otherwise an increment by pid. *)

let n_procs = 4
let bound = 1 lsl 20

let ops_gen =
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 120)
       (QCheck.Gen.pair
          (QCheck.Gen.int_range 0 (n_procs - 1))
          (QCheck.Gen.int_range (-1) 40)))

let differential_counter_vs_naive dial =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "dial %s (sim) = naive counter" (D.name dial))
    ops_gen
    (fun ops ->
      let session = Session.create () in
      let d = Harness.Instances.counter_dial_sim session ~n:n_procs dial in
      let naive =
        Harness.Instances.counter_sim session ~n:n_procs ~bound
          Harness.Instances.Naive_counter
      in
      List.for_all
        (fun (pid, v) ->
          if v < 0 then d.Counters.Counter.read () = naive.Counters.Counter.read ()
          else begin
            d.Counters.Counter.increment ~pid;
            naive.Counters.Counter.increment ~pid;
            d.Counters.Counter.read () = naive.Counters.Counter.read ()
          end)
        ops)

(* Boxed vs unboxed parity, and the max register against its running-max
   spec, are rows of the conformance table (conformance.ml): every boxed
   and unboxed dial constructor meets the sequential spec on the same
   seeded operations. *)
let boxed_vs_unboxed dial =
  Conformance.(
    agree
      (Printf.sprintf "dial %s: boxed = unboxed" (D.name dial))
      (find Counter ("dial " ^ D.name dial) [ "native"; "native_dial" ]))

let maxreg_running_max dial =
  Conformance.(
    agree
      (Printf.sprintf "dial %s maxreg = running max" (D.name dial))
      (find Maxreg ("dial " ^ D.name dial) [ "sim"; "native_dial" ]))

(* {1 Unboxed: 4-domain exactness and zero allocation} *)

let domains_used = 4

let in_domains k f =
  let ds = List.init k (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

let test_parallel_dial_exact () =
  let per_domain = 5_000 in
  List.iter
    (fun dial ->
      let module C = Counters.Dial_counter.Unboxed in
      let c = C.create ~n:domains_used ~dial () in
      in_domains domains_used (fun i ->
          for _ = 1 to per_domain do
            C.increment c ~pid:i
          done);
      Alcotest.(check int)
        (D.name dial ^ " total exact")
        (domains_used * per_domain) (C.read c))
    D.all

let test_parallel_dial_maxreg_monotone () =
  let per_domain = 3_000 in
  List.iter
    (fun dial ->
      let module A = Maxreg.Dial_maxreg.Unboxed in
      let reg = A.create ~n:domains_used ~dial () in
      let monotone = Atomic.make true in
      in_domains domains_used (fun i ->
          if i = 0 then begin
            let last = ref 0 in
            for _ = 1 to per_domain do
              let v = A.read_max reg in
              if v < !last then Atomic.set monotone false;
              last := v
            done
          end
          else
            for v = 1 to per_domain do
              A.write_max reg ~pid:i v
            done);
      Alcotest.(check bool) (D.name dial ^ " reads monotone") true
        (Atomic.get monotone);
      Alcotest.(check int)
        (D.name dial ^ " final max")
        per_domain (A.read_max reg))
    D.all

let ops = 10_000

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let slack = 256.0

let check_alloc_free name f =
  ignore (minor_delta f : float);
  let delta = minor_delta f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d ops allocate <= %.0f words (got %.0f)" name ops
       slack delta)
    true (delta <= slack)

let test_alloc_free_dial () =
  List.iter
    (fun dial ->
      let module C = Counters.Dial_counter.Unboxed in
      let c = C.create ~n:8 ~dial () in
      check_alloc_free (D.name dial ^ " increment") (fun () ->
          for _ = 1 to ops do
            C.increment c ~pid:3
          done);
      check_alloc_free (D.name dial ^ " read") (fun () ->
          for _ = 1 to ops do
            ignore (C.read c : int)
          done))
    D.all

(* {1 Fault plans: surviving histories linearize at every dial} *)

let lin_counter ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n

let fault_plan_linearizable dial =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "dial %s: faulted histories linearize" (D.name dial))
    (QCheck.pair
       (QCheck.make
          ~print:Faults.to_string
          QCheck.Gen.(
            map
              (fun (pid, after) -> [ Faults.Crash { pid; after } ])
              (pair (int_range 0 2) (int_range 0 20))))
       (QCheck.int_range 0 10_000))
    (fun (plan, seed) ->
      let session = Session.create () in
      let c =
        Harness.Annotate.counter session
          (Harness.Instances.counter_dial_sim session ~n:3 dial)
      in
      let make_body pid () =
        if pid < 2 then c.Counters.Counter.increment ~pid
        else ignore (c.Counters.Counter.read () : int)
      in
      Store.reset (Session.store session);
      let sched = Scheduler.create session in
      for pid = 0 to 2 do
        ignore
          (Scheduler.spawn sched (Faults.instrument plan make_body pid) : int)
      done;
      let g = Faults.gate plan in
      Faults.run_random ~max_events:400 ~seed sched g;
      lin_counter ~n:3 (Scheduler.finish sched))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "dial"
    [ ("geometry", [ Alcotest.test_case "widths and blocks" `Quick test_dial_geometry ]);
      ( "differential vs naive",
        qsuite (List.map differential_counter_vs_naive D.all) );
      ("boxed vs unboxed", List.map boxed_vs_unboxed D.all);
      ("maxreg", List.map maxreg_running_max D.all);
      ( "parallel",
        [ Alcotest.test_case "4-domain counter exact" `Quick
            test_parallel_dial_exact;
          Alcotest.test_case "4-domain maxreg monotone" `Quick
            test_parallel_dial_maxreg_monotone ] );
      ( "zero allocation",
        [ Alcotest.test_case "unboxed dial ops" `Quick test_alloc_free_dial ] );
      ("faults", qsuite (List.map fault_plan_linearizable D.all)) ]
