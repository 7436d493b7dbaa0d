(* Baseline counter at the opposite end of the tradeoff: one single-writer
   register per process.  CounterIncrement is O(1) (read + write of the own
   register); CounterRead collects all N registers (O(N)).  Wait-free, from
   reads and writes only. *)

open Memsim

module Make (M : Smem.Memory_intf.MEMORY) = struct
  type t = { cells : M.t array; n : int }

  let create ~n =
    if n <= 0 then invalid_arg "Naive_counter.create: n must be > 0";
    { cells = Array.init n (fun i -> M.make ~name:(Printf.sprintf "cell%d" i) (Simval.Int 0)); n }

  let increment t ~pid =
    if pid < 0 || pid >= t.n then invalid_arg "Naive_counter.increment: bad pid";
    let c = Simval.int_or ~default:0 (M.read t.cells.(pid)) in
    M.write t.cells.(pid) (Simval.Int (c + 1))

  let read t =
    let total = ref 0 in
    for i = 0 to t.n - 1 do
      total := !total + Simval.int_or ~default:0 (M.read t.cells.(i))
    done;
    !total
end

(* The same counter on bare [int Atomic.t] cells, accessed by the Atomic
   primitives directly (inline).  An array of adjacent one-word atomics is
   the structure most exposed to false sharing — each domain's increments
   invalidate its neighbours' cache lines — so [padded] defaults to true,
   giving every cell its own line. *)
module Unboxed = struct
  type t = { cells : int Atomic.t array; n : int }

  let create ?(padded = true) ~n () =
    if n <= 0 then invalid_arg "Naive_counter.create: n must be > 0";
    let mk () =
      if padded then Smem.Unboxed_memory.Padded.make 0
      else Smem.Unboxed_memory.make 0
    in
    { cells = Array.init n (fun _ -> mk ()); n }

  let increment t ~pid =
    if pid < 0 || pid >= t.n then invalid_arg "Naive_counter.increment: bad pid";
    let cell = t.cells.(pid) in
    Atomic.set cell (Atomic.get cell + 1)

  let read t =
    let total = ref 0 in
    for i = 0 to t.n - 1 do
      total := !total + Atomic.get t.cells.(i)
    done;
    !total
end
