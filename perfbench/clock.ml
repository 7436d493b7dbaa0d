(* The monotonic clock behind Harness.Throughput's latency runner
   (bechamel's clock_gettime stub), bound here as an unboxed external so
   a reading allocates nothing inside a timed loop. *)
external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (now_raw ())

(* Set-up time.  Building fresh objects allocates, so a single build's
   time depends on the heap's state and on memory touched for the first
   time: [warm] gives every run the same starting state.  A sample times
   ten builds, so the collections they trigger are averaged in rather
   than dropped.  Host speed moves in bursts (by up to a factor of two on
   a small shared machine), so the workloads take their samples spread
   over the whole run, between trials, and report the median. *)
let warm build =
  Gc.full_major ();
  for _ = 1 to 100 do ignore (Sys.opaque_identity (build ())) done

let setup_samples build ~samples =
  Array.init samples (fun _ ->
      let t0 = now_ns () in
      for _ = 1 to 10 do ignore (Sys.opaque_identity (build ())) done;
      float_of_int (now_ns () - t0) *. 1e-10)
