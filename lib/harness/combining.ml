(* Flat-combining backends over the unboxed natives: each structure
   pairs its plain unboxed implementation with a {!Smem.Combine} arena
   sized for the participating domains, wiring the structure-specific
   pieces together:

   - the *combine* function (max for max registers, (+) for counters);
   - the *apply* closure, built ONCE at creation (a literal [fun] at the
     submit site would allocate per contended op) and receiving the
     combiner's domain id — the tree structures absorb a whole batch at
     the combiner's own leaf, one traversal per batch;
   - the *fast path*, which must keep uncontended ops at the plain
     backend's cost: the tree structures (whose root CAS cannot be
     retried soundly outside propagate) try the combiner lock first and
     apply directly on success;
   - the *solo* shortcut: [domains = 1] means no other domain can ever
     contend, so every unmetered op short-circuits to a DIRECT call of
     the plain unboxed operation — no elimination check, no stat tally,
     and no [apply]-closure indirection (at ~5 ns/op even an indirect
     call shows up).  The single-domain bench rows must sit within a
     branch of the plain backend, per the acceptance bar.  The metered
     constructors opt out ([solo = false]): the metrics pass measures
     counters rather than time, and should tell the same
     elimination/CAS story at every domain count;
   - the *elimination* shortcut for max registers: a WriteMax at or
     below the current root value linearizes at that root read and
     completes with zero shared writes (the root is monotone — once it
     shows m >= v, a WriteMax(v) is already subsumed).

   These modules are concrete (not functors) for the same reason the
   Unboxed natives are: without flambda the functor indirection would
   cost more than the fast-path operations being protected.  Raw
   atomics stay inside Smem.Combine and the Unboxed modules — nothing
   here touches Atomic/Domain directly, so lint R1 needs no new entry
   outside lib/smem. *)

module AU = Maxreg.Algorithm_a.Unboxed
module FU = Counters.Farray_counter.Unboxed

let imax a b = if a >= b then a else b

(* {1 Algorithm A max register} *)

module Alg_a = struct
  type t = {
    reg : AU.t;
    arena : Smem.Combine.t;
    apply : int -> int -> unit;
    solo : bool;
  }

  let create ?spin ~n ~domains () =
    let reg = AU.create ~n () in
    { reg;
      arena = Smem.Combine.create ?spin ~domains ~combine:imax ();
      apply = (fun d v -> AU.write_max reg ~pid:d v);
      solo = domains = 1 }

  let create_metered ?spin ~metrics ~n ~domains () =
    let reg = AU.create ~n () in
    { reg;
      arena = Smem.Combine.create ?spin ~domains ~combine:imax ();
      apply = (fun d v -> AU.write_max_metered reg ~metrics ~pid:d v);
      (* metered instances keep the full fast-path/arena policy even at
         domains = 1: the metrics pass measures counters, not time, and
         the elimination/CAS tallies should tell the same story at
         every domain count *)
      solo = false }

  let arena t = t.arena
  let[@inline] read_max t = AU.read_max t.reg

  let[@inline] write_max t ~pid value =
    if value < 0 then invalid_arg "Combining.Alg_a.write_max: negative value";
    if t.solo then AU.write_max t.reg ~pid value
    else if
      (* Elimination: the root is monotone, so root >= value means the
         write is already subsumed — it linearizes at this read. *)
      value <= AU.read_max t.reg
    then Smem.Combine.record_elimination t.arena ~domain:pid
    else Smem.Combine.submit t.arena ~domain:pid ~apply:t.apply value
end

(* {1 F-array counter} *)

module Farray_c = struct
  type t = {
    c : FU.t;
    arena : Smem.Combine.t;
    apply : int -> int -> unit;
    solo : bool;
  }

  let create ?spin ~n ~domains () =
    let c = FU.create ~n () in
    { c;
      arena = Smem.Combine.create ?spin ~domains ~combine:( + ) ();
      apply = (fun d k -> FU.add c ~pid:d k);
      solo = domains = 1 }

  let create_metered ?spin ~metrics ~n ~domains () =
    let c = FU.create ~n () in
    { c;
      arena = Smem.Combine.create ?spin ~domains ~combine:( + ) ();
      apply = (fun d k -> FU.add_metered c ~metrics ~pid:d k);
      solo = false }

  let arena t = t.arena
  let[@inline] read t = FU.read t.c

  (* No elimination for increments (nothing subsumes them for free);
     the win is the batch: k pending increments propagate as one
     Add k — one tree traversal instead of k. *)
  let[@inline] increment t ~pid =
    if t.solo then FU.increment t.c ~pid
    else Smem.Combine.submit t.arena ~domain:pid ~apply:t.apply 1
end
