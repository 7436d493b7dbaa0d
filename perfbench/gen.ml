let write_max = 0
let increment = 1
let read_max = 2
let read_count = 3
let cycle = 4096

let schedule ~seed ~read_share ~domain =
  if not (read_share >= 0. && read_share <= 1.) then
    invalid_arg "Gen.schedule: read_share outside [0, 1]";
  let reads = int_of_float (Float.round (float_of_int cycle *. read_share)) in
  let s =
    Array.init cycle (fun i ->
        if i < reads then if i land 1 = 0 then read_max else read_count
        else if (i - reads) land 1 = 0 then write_max
        else increment)
  in
  let rng = Random.State.make [| seed; domain |] in
  for i = cycle - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = s.(i) in
    s.(i) <- s.(j);
    s.(j) <- t
  done;
  s

type cursor = {
  domain : int;
  domains : int;
  sched : int array;
  mutable pos : int;
  mutable reads : int;
  mutable writes : int;
  mutable increments : int;
  mutable last_value : int;
  mutable replays : int;
  mutable max_sample : int;
  mutable count_sample : int;
  mutable decreases : int;
}

let cursor ~seed ~read_share ~domains ~domain =
  { domain; domains; sched = schedule ~seed ~read_share ~domain; pos = 0;
    reads = 0; writes = 0; increments = 0;
    last_value = 0; replays = 0; max_sample = 0; count_sample = 0;
    decreases = 0 }

let value c k = (k * c.domains) + c.domain + 1

(* The hot loop keeps the cursor in locals and stores it back once per
   batch, so the only shared-memory traffic is the operations' own. *)
let run_batch c (mr : Maxreg.Max_register.instance)
    (ctr : Counters.Counter.instance) n =
  let sched = c.sched and d = c.domain and stride = c.domains in
  let pos = ref c.pos and rd = ref c.reads and w = ref c.writes in
  let incs = ref c.increments in
  let last_v = ref c.last_value and replays = ref c.replays in
  let m = ref c.max_sample and k = ref c.count_sample in
  for _ = 1 to n do
    (match Array.unsafe_get sched (!pos land (cycle - 1)) with
     | 0 ->
       let v = (!w * stride) + d + 1 in
       if v <= !last_v then incr replays;
       last_v := v;
       incr w;
       mr.write_max ~pid:d v
     | 1 ->
       incr incs;
       ctr.increment ~pid:d
     | 2 ->
       incr rd;
       m := mr.read_max ()
     | _ ->
       incr rd;
       k := ctr.read ());
    incr pos
  done;
  if !m < c.max_sample || !k < c.count_sample then
    c.decreases <- c.decreases + 1;
  c.pos <- !pos;
  c.reads <- !rd;
  c.writes <- !w;
  c.increments <- !incs;
  c.last_value <- !last_v;
  c.replays <- !replays;
  c.max_sample <- !m;
  c.count_sample <- !k

let max_written cs =
  Array.fold_left
    (fun acc c -> if c.writes = 0 then acc else max acc (value c (c.writes - 1)))
    0 cs

(* [run_batch] with a clock pair around each operation.  A separate copy
   rather than a flag, so the throughput loop carries no timing branch. *)
let run_batch_timed c (mr : Maxreg.Max_register.instance)
    (ctr : Counters.Counter.instance) ~updates ~reads n =
  let sched = c.sched and d = c.domain and stride = c.domains in
  let pos = ref c.pos and rd = ref c.reads and w = ref c.writes in
  let incs = ref c.increments in
  let last_v = ref c.last_value and replays = ref c.replays in
  let m = ref c.max_sample and k = ref c.count_sample in
  for _ = 1 to n do
    (match Array.unsafe_get sched (!pos land (cycle - 1)) with
     | 0 ->
       let v = (!w * stride) + d + 1 in
       if v <= !last_v then incr replays;
       last_v := v;
       incr w;
       let t0 = Clock.now_ns () in
       mr.write_max ~pid:d v;
       Obs.Histogram.record updates (Clock.now_ns () - t0)
     | 1 ->
       incr incs;
       let t0 = Clock.now_ns () in
       ctr.increment ~pid:d;
       Obs.Histogram.record updates (Clock.now_ns () - t0)
     | 2 ->
       incr rd;
       let t0 = Clock.now_ns () in
       m := mr.read_max ();
       Obs.Histogram.record reads (Clock.now_ns () - t0)
     | _ ->
       incr rd;
       let t0 = Clock.now_ns () in
       k := ctr.read ();
       Obs.Histogram.record reads (Clock.now_ns () - t0));
    incr pos
  done;
  if !m < c.max_sample || !k < c.count_sample then
    c.decreases <- c.decreases + 1;
  c.pos <- !pos;
  c.reads <- !rd;
  c.writes <- !w;
  c.increments <- !incs;
  c.last_value <- !last_v;
  c.replays <- !replays;
  c.max_sample <- !m;
  c.count_sample <- !k
