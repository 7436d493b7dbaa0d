let max_names = 256
let registry : string array = Array.make max_names ""
let registered = ref 0

let intern s =
  let rec find i =
    if i >= !registered then begin
      if !registered >= max_names then invalid_arg "Spans.intern: too many names";
      registry.(i) <- s;
      incr registered;
      i
    end
    else if registry.(i) = s then i
    else find (i + 1)
  in
  find 0

let name i = registry.(i)
let none = -1

(* Every closed span adds to its name's totals; only the first
   [keep_per_name] of each name are kept for the exported trace, so every
   layer shows on the timeline and the file stays small. *)
let keep_per_name = 1000
let capacity = 1 lsl 16
let max_depth = 16

(* Each array is a separate block allocated by the caller's domain
   before recording starts; the mutable counters sit mid-block
   ([max_names] of [kept_n]) so two domains' buffers never share a cache
   line. *)
type t = {
  tid : int;
  k_name : int array;
  k_t0 : int array;
  k_t1 : int array;
  k_items : int array;
  kept_n : int array;
  open_name : int array;       (* stack of open spans *)
  open_t0 : int array;
  spans_by : int array;
  items_by : int array;
  total_by : int array;
  child_by : int array;        (* time of closed children, by parent name *)
}

let create ~tid =
  let kept () = Array.make capacity 0 in
  let per_name () = Array.make (2 * max_names) 0 in
  { tid; k_name = kept (); k_t0 = kept (); k_t1 = kept (); k_items = kept ();
    kept_n = per_name (); open_name = per_name (); open_t0 = per_name ();
    spans_by = per_name (); items_by = per_name (); total_by = per_name ();
    child_by = per_name () }

let depth t = t.kept_n.(max_names + 1)

let finish t ~name ~parent ~t0 ~t1 ~items =
  let dur = t1 - t0 in
  let seen = t.spans_by.(name) in
  t.spans_by.(name) <- seen + 1;
  t.items_by.(name) <- t.items_by.(name) + items;
  t.total_by.(name) <- t.total_by.(name) + dur;
  if parent <> none then begin
    let pname = t.open_name.(parent) in
    t.child_by.(pname) <- t.child_by.(pname) + dur
  end;
  let k = t.kept_n.(max_names) in
  if seen < keep_per_name && k < capacity then begin
    t.k_name.(k) <- name;
    t.k_t0.(k) <- t0;
    t.k_t1.(k) <- t1;
    t.k_items.(k) <- items;
    t.kept_n.(max_names) <- k + 1
  end

let open_ t ~name ~parent =
  let d = depth t in
  if d >= max_depth then invalid_arg "Spans.open_: nested too deep";
  if parent <> none && parent <> d - 1 then
    invalid_arg "Spans.open_: parent is not the innermost open span";
  t.kept_n.(max_names + 1) <- d + 1;
  t.open_name.(d) <- name;
  t.open_t0.(d) <- Clock.now_ns ();
  d

let close t id ~items =
  let t1 = Clock.now_ns () in
  if id <> depth t - 1 then invalid_arg "Spans.close: not the innermost open span";
  t.kept_n.(max_names + 1) <- id;
  finish t ~name:t.open_name.(id) ~parent:(if id = 0 then none else id - 1)
    ~t0:t.open_t0.(id) ~t1 ~items

let record t ~name ~t0 ~t1 ~items =
  let d = depth t in
  finish t ~name ~parent:(if d = 0 then none else d - 1) ~t0 ~t1 ~items

type total = { spans : int; items : int; total_ns : int; self_ns : int }

let totals bufs name =
  List.fold_left
    (fun acc t ->
      { spans = acc.spans + t.spans_by.(name);
        items = acc.items + t.items_by.(name);
        total_ns = acc.total_ns + t.total_by.(name);
        self_ns = acc.self_ns + t.total_by.(name) - t.child_by.(name) })
    { spans = 0; items = 0; total_ns = 0; self_ns = 0 }
    bufs

let ns_per_item bufs name =
  let t = totals bufs name in
  if t.items = 0 then nan else float_of_int t.total_ns /. float_of_int t.items

let names_recorded bufs =
  List.filter
    (fun i -> (totals bufs i).spans > 0)
    (List.init !registered Fun.id)

let chrome_json ~manifest bufs =
  let open Obs.Json_out in
  let kept t = List.init t.kept_n.(max_names) Fun.id in
  let base =
    List.fold_left
      (fun acc t -> List.fold_left (fun acc k -> min acc t.k_t0.(k)) acc (kept t))
      max_int bufs
  in
  let us ns = Float (float_of_int ns /. 1000.) in
  let events =
    List.concat_map
      (fun t ->
        let meta =
          Obj
            [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Int 1);
              ("tid", Int t.tid);
              ("args", Obj [ ("name", Str (Printf.sprintf "domain %d" t.tid)) ]) ]
        in
        meta
        :: List.map
             (fun k ->
               let nm = registry.(t.k_name.(k)) in
               let cat =
                 match String.index_opt nm '.' with
                 | Some i -> String.sub nm 0 i
                 | None -> nm
               in
               Obj
                 [ ("name", Str nm); ("cat", Str cat); ("ph", Str "X");
                   ("ts", us (t.k_t0.(k) - base));
                   ("dur", us (t.k_t1.(k) - t.k_t0.(k)));
                   ("pid", Int 1); ("tid", Int t.tid);
                   ("args", Obj [ ("items", Int t.k_items.(k)) ]) ])
             (kept t))
      bufs
  in
  Obj
    [ ("traceEvents", List events); ("displayTimeUnit", Str "ns");
      ("otherData", manifest) ]
