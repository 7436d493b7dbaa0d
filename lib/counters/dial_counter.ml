(* The tradeoff-dial counter: Theorem 1's frontier as one parameterized
   construction.  The N per-process leaves are grouped into f(N) blocks
   of ceil(N/f) leaves ({!Treeprim.Dial}); each block is a sum f-array,
   so CounterRead collects the f block roots in Theta(f) steps and
   CounterIncrement bumps the caller's leaf and propagates only to its
   own block root in O(log(N/f)) steps.

   The extreme dials coincide with the existing structures — F_one is
   Farray_counter (one block of N leaves), F_n is Naive_counter (N
   single-leaf blocks, where propagation is empty and an increment is a
   read + write of the own cell) — and F_log / F_sqrt realize the
   interior points the paper's tradeoff curve promises. *)

open Memsim

module Make (M : Smem.Memory_intf.MEMORY) = struct
  module F = Farray.Make (M)

  type t = { blocks : F.t array; bsize : int }

  let sum a b =
    Simval.Int (Simval.int_or ~default:0 a + Simval.int_or ~default:0 b)

  let create ~n ~dial =
    if n <= 0 then invalid_arg "Dial_counter.create: n must be > 0";
    let bsize = Treeprim.Dial.block_size ~n dial in
    let nblocks = (n + bsize - 1) / bsize in
    { blocks =
        Array.init nblocks (fun b ->
            F.create ~n:(min bsize (n - (b * bsize))) ~combine:sum ());
      bsize }

  let read t =
    let total = ref 0 in
    for b = 0 to Array.length t.blocks - 1 do
      total := !total + Simval.int_or ~default:0 (F.read t.blocks.(b))
    done;
    !total

  let increment t ~pid =
    let fa = t.blocks.(pid / t.bsize) in
    let leaf = pid mod t.bsize in
    let c = Simval.int_or ~default:0 (F.read_leaf fa leaf) in
    F.update fa ~leaf (Simval.Int (c + 1))
end

(* The zero-alloc native twin, over {!Farray.Unboxed} blocks: same block
   geometry and step counts, inline Atomic primitives, the [bot]
   sentinel contributing 0 to the sum.  [padded] (default true) gives
   every tree node its own cache line. *)
module Unboxed = struct
  module F = Farray.Unboxed

  type t = { blocks : F.t array; bsize : int }

  let bot = F.bot

  let sum a b = (if a = bot then 0 else a) + if b = bot then 0 else b

  let create ?(padded = true) ~n ~dial () =
    if n <= 0 then invalid_arg "Dial_counter.create: n must be > 0";
    let bsize = Treeprim.Dial.block_size ~n dial in
    let nblocks = (n + bsize - 1) / bsize in
    { blocks =
        Array.init nblocks (fun b ->
            F.create ~padded ~n:(min bsize (n - (b * bsize))) ~combine:sum ());
      bsize }

  let read t =
    let total = ref 0 in
    for b = 0 to Array.length t.blocks - 1 do
      let v = F.read t.blocks.(b) in
      total := !total + if v = bot then 0 else v
    done;
    !total

  let increment t ~pid =
    let fa = t.blocks.(pid / t.bsize) in
    let leaf = pid mod t.bsize in
    let c = F.read_leaf fa leaf in
    let c = if c = bot then 0 else c in
    F.update fa ~leaf (c + 1)

  let increment_metered t ~metrics ~pid =
    let fa = t.blocks.(pid / t.bsize) in
    let leaf = pid mod t.bsize in
    let c = F.read_leaf fa leaf in
    let c = if c = bot then 0 else c in
    F.update_metered fa ~metrics ~domain:pid ~leaf (c + 1)
end
