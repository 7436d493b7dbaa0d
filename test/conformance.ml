(* The conformance table: every max-register and counter constructor of
   Harness.Instances, one row each, checked against Linearize.Spec on one
   shared operation generator.  test_conformance runs the whole table and
   its boundary pins; test_unboxed, test_combining and test_dial select
   the rows behind their boxed/unboxed and combining/plain relations
   from it, so every such relation is "both sides meet the spec".

   Each check runs a fixed seed list plus one random seed; a failure
   names the row, n, the seed and the first operation that disagreed. *)

module I = Harness.Instances
module D = Treeprim.Dial

type kind = Maxreg | Counter

(* A constructed object, max register or counter alike: [update ~pid v]
   is write_max v, or one increment (v ignored). *)
type subject = { read : unit -> int; update : pid:int -> int -> unit }

type row = {
  kind : kind;
  structure : string;  (* the Instances name: "algorithm-a", "dial f1" *)
  ctor : string;       (* the Instances constructor family: "sim", ... *)
  build : n:int -> domains:int -> subject option;
      (* [domains] sizes combining arenas; other rows ignore it *)
  combining : bool;
  pid_checked : bool;
      (* an out-of-range pid raises Invalid_argument; when false the pid
         is ignored and the operation takes effect *)
  n0_rejected : bool;  (* [n = 0] raises Invalid_argument *)
}

let name r =
  Printf.sprintf "%s %s %s"
    (match r.kind with Maxreg -> "maxreg" | Counter -> "counter")
    r.structure r.ctor

(* AAC objects are the only ones [bound] restricts: write values and
   increment totals stay below it. *)
let bound = 128

let of_maxreg (r : Maxreg.Max_register.instance) =
  { read = r.read_max; update = (fun ~pid v -> r.write_max ~pid v) }

let of_counter (c : Counters.Counter.instance) =
  { read = c.read; update = (fun ~pid _ -> c.increment ~pid) }

(* Metered rows get an enabled handle wide enough for any pid a test
   passes, so an out-of-range pid exercises the structure, not the
   metrics shard array. *)
let metrics () = Obs.Metrics.create ~domains:Smem.Combine.max_domains ()

let maxreg_rows impl =
  let s = I.maxreg_name impl in
  (* Algorithm A validates n and pid; the AAC register, B1 and cas-loop
     take no n and ignore pid *)
  let checked =
    match impl with
    | I.Algorithm_a | I.Algorithm_a_literal -> true
    | I.Aac_maxreg | I.B1_maxreg | I.Cas_maxreg -> false
  in
  let row ?(combining = false) ctor build =
    { kind = Maxreg; structure = s; ctor; combining;
      pid_checked = checked; n0_rejected = checked;
      build = (fun ~n ~domains -> Option.map of_maxreg (build ~n ~domains)) }
  in
  [ row "sim" (fun ~n ~domains:_ ->
        Some (I.maxreg_sim (Memsim.Session.create ()) ~n ~bound impl));
    row "native" (fun ~n ~domains:_ -> Some (I.maxreg_native ~n ~bound impl));
    row "native_fast" (fun ~n ~domains:_ -> I.maxreg_native_fast ~n ~bound impl);
    row "native_metered" (fun ~n ~domains:_ ->
        I.maxreg_native_metered ~metrics:(metrics ()) ~n ~bound impl);
    row ~combining:true "native_combining" (fun ~n ~domains ->
        Option.map fst (I.maxreg_native_combining ~n ~domains ~bound impl));
    row ~combining:true "native_combining_metered" (fun ~n ~domains ->
        Option.map fst
          (I.maxreg_native_combining_metered ~metrics:(metrics ()) ~n ~domains
             ~bound impl)) ]

let counter_rows impl =
  let row ?(combining = false) ctor build =
    { kind = Counter; structure = I.counter_name impl; ctor; combining;
      pid_checked = true; n0_rejected = true;
      build = (fun ~n ~domains -> Option.map of_counter (build ~n ~domains)) }
  in
  [ row "sim" (fun ~n ~domains:_ ->
        Some (I.counter_sim (Memsim.Session.create ()) ~n ~bound impl));
    row "native" (fun ~n ~domains:_ -> Some (I.counter_native ~n ~bound impl));
    row "native_fast" (fun ~n ~domains:_ -> I.counter_native_fast ~n ~bound impl);
    row "native_metered" (fun ~n ~domains:_ ->
        I.counter_native_metered ~metrics:(metrics ()) ~n ~bound impl);
    row ~combining:true "native_combining" (fun ~n ~domains ->
        Option.map fst (I.counter_native_combining ~n ~domains ~bound impl));
    row ~combining:true "native_combining_metered" (fun ~n ~domains ->
        Option.map fst
          (I.counter_native_combining_metered ~metrics:(metrics ()) ~n
             ~domains ~bound impl)) ]

let dial_rows dial =
  let s = "dial " ^ D.name dial in
  let row kind ctor build =
    { kind; structure = s; ctor; combining = false; pid_checked = true;
      n0_rejected = true; build = (fun ~n ~domains:_ -> Some (build ~n)) }
  in
  let sim () = Memsim.Session.create () in
  [ row Counter "sim" (fun ~n -> of_counter (I.counter_dial_sim (sim ()) ~n dial));
    row Counter "native" (fun ~n ->
        of_counter (I.counter_dial_over I.native ~n dial));
    row Counter "native_dial" (fun ~n -> of_counter (I.counter_native_dial ~n dial));
    row Counter "native_dial_metered" (fun ~n ->
        of_counter
          (I.counter_native_dial_metered ~metrics:(metrics ()) ~n dial));
    row Maxreg "sim" (fun ~n -> of_maxreg (I.maxreg_dial_sim (sim ()) ~n dial));
    row Maxreg "native" (fun ~n ->
        of_maxreg (I.maxreg_dial_over I.native ~n dial));
    row Maxreg "native_dial" (fun ~n -> of_maxreg (I.maxreg_native_dial ~n dial)) ]

(* Rows whose constructor has no instance for the implementation (e.g.
   no unboxed AAC) are left out. *)
let table =
  List.concat_map maxreg_rows (I.Algorithm_a_literal :: I.all_maxregs)
  @ List.concat_map counter_rows
      (I.all_counters
       @ [ I.Snapshot_counter I.Double_collect; I.Snapshot_counter I.Afek ])
  @ List.concat_map dial_rows D.all
  |> List.filter (fun r -> r.build ~n:2 ~domains:2 <> None)

let find kind structure ctors =
  List.filter
    (fun r -> r.kind = kind && r.structure = structure && List.mem r.ctor ctors)
    table

(* {1 The shared operation generator}

   (pid, v): v < 0 is a read, otherwise an update with value v.  Values
   favour the Algorithm A TL/TR boundary (n-2, n-1) and stay below
   [bound]; op counts keep AAC counter totals below it too. *)

let ops ~n ~seed =
  let st = Random.State.make [| seed; n |] in
  let value () =
    match Random.State.int st 4 with
    | 0 -> max 0 (n - 2 + Random.State.int st 2)
    | _ -> Random.State.int st ((3 * n) + 8)
  in
  List.init
    (40 + Random.State.int st 60)
    (fun _ ->
      let pid = Random.State.int st n in
      if Random.State.int st 3 = 0 then (pid, -1) else (pid, value ()))

let fixed_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let random_seed =
  Random.self_init ();
  Random.bits ()

let ns = [ 1; 3; 4 ]

(* Run [ops] against a fresh object and the sequential spec; the first
   read that disagrees, as (op index, got, expected). *)
let first_mismatch r ~n ops =
  let subject = Option.get (r.build ~n ~domains:n) in
  let step, read, update =
    match r.kind with
    | Maxreg -> (Linearize.Spec.Max_register.apply, "read_max", "write_max")
    | Counter -> (Linearize.Spec.Counter.apply, "read", "increment")
  in
  let rec go state i = function
    | [] -> None
    | (pid, v) :: rest ->
      let name, arg =
        if v >= 0 then (update, Memsim.Simval.Int v) else (read, Memsim.Simval.Bot)
      in
      let state, expected = Option.get (step state ~name ~pid ~arg) in
      if v >= 0 then begin
        subject.update ~pid v;
        go state (i + 1) rest
      end
      else
        let expected = Memsim.Simval.int_exn expected and got = subject.read () in
        if got = expected then go state (i + 1) rest else Some (i, got, expected)
  in
  go 0 0 ops

let check_row r =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          match first_mismatch r ~n (ops ~n ~seed) with
          | None -> ()
          | Some (i, got, expected) ->
            Alcotest.failf "%s, n = %d, seed %d%s: op %d read %d, spec %d"
              (name r) n seed
              (if seed = random_seed then " (the random seed)" else "")
              i got expected)
        (fixed_seeds @ [ random_seed ]))
    ns

(* One relation over the table: every selected row meets the spec on the
   same operations, hence all of them agree. *)
let agree test_name rows =
  Alcotest.test_case test_name `Quick (fun () ->
      if rows = [] then Alcotest.failf "%s: no rows selected" test_name;
      List.iter check_row rows)
