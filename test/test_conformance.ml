(* Conformance of every max-register and counter constructor (the table
   in conformance.ml) to its sequential specification, plus the boundary
   behaviour each row pins: n = 0, n = 1, negative values, the Algorithm A
   TL/TR boundary, out-of-range pids and oversized combining arenas. *)

open Conformance

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let each rows f = List.iter f rows
let maxregs = List.filter (fun r -> r.kind = Maxreg) table

let build r ~n = Option.get (r.build ~n ~domains:n)

let test_n0 () =
  each table (fun r ->
      Alcotest.(check bool)
        (name r ^ ": n = 0 rejected")
        r.n0_rejected
        (raises_invalid (fun () -> r.build ~n:0 ~domains:1)))

let test_n1 () =
  each table (fun r ->
      let s = build r ~n:1 in
      List.iter (fun v -> s.update ~pid:0 v) [ 0; 5; 1 ];
      Alcotest.(check int) (name r ^ ": n = 1")
        (match r.kind with Maxreg -> 5 | Counter -> 3)
        (s.read ()))

let test_negative_value () =
  each maxregs (fun r ->
      let s = build r ~n:3 in
      Alcotest.(check bool) (name r ^ ": negative value rejected") true
        (raises_invalid (fun () -> s.update ~pid:0 (-1))))

(* Algorithm A's TL holds values 0..n-2, its TR values >= n-1: write
   across the seam in both orders, from two pids.  Every max register
   must agree. *)
let test_tl_tr_boundary () =
  each maxregs (fun r ->
      List.iter
        (fun n ->
          let check what want s =
            Alcotest.(check int)
              (Printf.sprintf "%s, n = %d: %s" (name r) n what) want (s.read ())
          in
          let s = build r ~n in
          s.update ~pid:0 (n - 1);
          check "TR value n-1" (n - 1) s;
          s.update ~pid:(n - 1) (n - 2);
          check "TL value n-2 under n-1" (n - 1) s;
          let s = build r ~n in
          s.update ~pid:(n - 1) (n - 2);
          check "TL value n-2" (n - 2) s;
          s.update ~pid:0 (n - 1);
          check "TR value n-1 over n-2" (n - 1) s)
        [ 2; 3; 4; 8 ])

(* pid = n: rejected, or (cas-loop, B1, AAC register) ignored and the
   operation takes effect. *)
let test_out_of_range_pid () =
  each table (fun r ->
      let n = 3 in
      let s = build r ~n in
      if r.pid_checked then
        Alcotest.(check bool) (name r ^ ": pid = n rejected") true
          (raises_invalid (fun () -> s.update ~pid:n 5))
      else begin
        s.update ~pid:n 5;
        Alcotest.(check int) (name r ^ ": pid = n ignored") 5 (s.read ())
      end)

let test_oversized_arena () =
  let combining = List.filter (fun r -> r.combining) table in
  Alcotest.(check bool) "combining rows exist" true (combining <> []);
  each combining (fun r ->
      Alcotest.(check bool)
        (name r ^ ": domains > Combine.max_domains rejected")
        true
        (raises_invalid (fun () ->
             r.build ~n:2 ~domains:(Smem.Combine.max_domains + 1))))

let () =
  Alcotest.run "conformance"
    [ ("spec", List.map (fun r -> agree (name r) [ r ]) table);
      ( "boundaries",
        [ Alcotest.test_case "n = 0 rejected where pinned" `Quick test_n0;
          Alcotest.test_case "n = 1 works" `Quick test_n1;
          Alcotest.test_case "negative value rejected" `Quick
            test_negative_value;
          Alcotest.test_case "TL/TR boundary values" `Quick
            test_tl_tr_boundary;
          Alcotest.test_case "out-of-range pid" `Quick test_out_of_range_pid;
          Alcotest.test_case "oversized combining arena" `Quick
            test_oversized_arena ] ) ]
