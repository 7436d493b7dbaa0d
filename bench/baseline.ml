(* Baseline diffing for bench trajectories: match the rows of a fresh
   sweep against a committed BENCH_NATIVE.json by
   (structure, impl, backend, domains, read_pct) and report throughput
   ratios.  Deliberately warn-only — bench numbers from shared CI
   runners are too noisy to gate on (the per-row [rsd] field quantifies
   exactly how noisy), so the report flags suspects for a human.

   Works on parsed {!Obs.Json_out.t} documents rather than [Bench_native.row]
   so both sides go through the same schema accessors; v2/v3 baselines
   (no combining rows) and v4 baselines (an adaptive backend that v5
   dropped) still diff fine — unmatched rows are counted and warned
   about, not errors.

   Matching is keyed through a [Hashtbl] (one pass over the baseline,
   one over the current rows) rather than a per-row [List.find_opt]
   scan: the old O(rows²) polymorphic-equality walk also matched only
   the first of duplicated baseline keys {e silently} — duplicates now
   produce a warning (the first occurrence still wins, keeping the
   matching deterministic).  Everything downstream ({!report},
   {!regression_count}) is a view over ONE {!analyze} result, so the
   documents are parsed and diffed exactly once however many views a
   caller takes. *)

type entry = {
  structure : string;
  impl : string;
  backend : string;
  domains : int;
  read_pct : int;
  mops : float;
}

let entry_of_row j =
  let str k = Option.bind (Obs.Json_out.member k j) Obs.Json_out.as_string in
  let int k = Option.bind (Obs.Json_out.member k j) Obs.Json_out.as_int in
  let flt k = Option.bind (Obs.Json_out.member k j) Obs.Json_out.as_float in
  match
    (str "structure", str "impl", str "backend", int "domains",
     int "read_pct", flt "mops")
  with
  | Some structure, Some impl, Some backend, Some domains, Some read_pct,
    Some mops ->
    Some { structure; impl; backend; domains; read_pct; mops }
  | _ -> None

let entries_of_doc doc =
  match Option.bind (Obs.Json_out.member "rows" doc) Obs.Json_out.as_list with
  | None -> []
  | Some rows -> List.filter_map entry_of_row rows

let schema_of_doc doc =
  Option.bind (Obs.Json_out.member "schema" doc) Obs.Json_out.as_string

let key e = (e.structure, e.impl, e.backend, e.domains, e.read_pct)

let key_name e =
  Printf.sprintf "%s/%s %s d=%d r=%d%%" e.structure e.impl e.backend e.domains
    e.read_pct

type delta = {
  cur : entry;
  base_mops : float;
  ratio : float;  (* current / baseline *)
}

type diff_result = {
  matched : delta list;
  dup_keys : string list;
  baseline_only : string list;
  current_only : string list;
  bad_baseline : string list;
}

let diff ~baseline ~current =
  let tbl = Hashtbl.create (max 16 (2 * List.length baseline)) in
  let seen = Hashtbl.create 16 in
  let dups = ref [] in
  List.iter
    (fun b ->
      let k = key b in
      if Hashtbl.mem tbl k then dups := key_name b :: !dups
      else Hashtbl.add tbl k b)
    baseline;
  (* every row unmatched on either side is reported, not skipped: a
     baseline-only row means coverage silently shrank, a current-only
     row means the baseline predates the cell — both are exactly the
     cases a human diffing trajectories wants flagged *)
  let cur_only = ref [] in
  let bad = ref [] in
  let deltas =
    List.filter_map
      (fun c ->
        match Hashtbl.find_opt tbl (key c) with
        | Some b when Float.is_finite b.mops && b.mops > 0. ->
          Hashtbl.replace seen (key c) ();
          Some { cur = c; base_mops = b.mops; ratio = c.mops /. b.mops }
        | Some _ ->
          Hashtbl.replace seen (key c) ();
          bad := key_name c :: !bad;
          None
        | None ->
          cur_only := key_name c :: !cur_only;
          None)
      current
  in
  let base_only =
    Hashtbl.fold
      (fun k b acc -> if Hashtbl.mem seen k then acc else key_name b :: acc)
      tbl []
  in
  { matched = deltas;
    dup_keys = List.rev !dups;
    baseline_only = List.sort compare base_only;
    current_only = List.rev !cur_only;
    bad_baseline = List.rev !bad }

(* Flag threshold: a quarter off the baseline.  Of the same order as the
   rsd flag in {!Bench_native} — tighter than the noise floor would just
   cry wolf. *)
let default_threshold = 0.25

type analysis = {
  warnings : string list;  (* schema surprises + duplicate baseline keys *)
  baseline_rows : int;
  current_rows : int;
  deltas : delta list;
  regressions : delta list;
  improvements : delta list;
  threshold : float;
}

let analyze ?(threshold = default_threshold) ~baseline ~current () =
  let warnings = ref [] in
  let warn s = warnings := s :: !warnings in
  (match schema_of_doc baseline with
   | Some
       ( "bench-native/v2" | "bench-native/v3" | "bench-native/v4"
       | "bench-native/v5" ) -> ()
   | Some s ->
     warn (Printf.sprintf "unrecognized schema %S; matching rows anyway" s)
   | None -> warn "no schema field; matching rows anyway");
  let base = entries_of_doc baseline in
  let cur = entries_of_doc current in
  let d = diff ~baseline:base ~current:cur in
  let deltas = d.matched in
  List.iter
    (fun k ->
      warn
        (Printf.sprintf "duplicate baseline key %s; first occurrence wins" k))
    d.dup_keys;
  (* asymmetric rows: visible, warn-only.  Summarized past a handful so
     a baseline whose backend columns differ from the run's (v3 had no
     adaptive column, v5 dropped it) stays readable. *)
  let warn_keys what keys =
    match keys with
    | [] -> ()
    | _ ->
      let n = List.length keys in
      let shown, rest =
        if n <= 6 then (keys, 0)
        else (List.filteri (fun i _ -> i < 6) keys, n - 6)
      in
      warn
        (Printf.sprintf "%d row(s) %s: %s%s" n what
           (String.concat ", " shown)
           (if rest = 0 then "" else Printf.sprintf " … and %d more" rest))
  in
  warn_keys "only in the baseline (cell no longer measured)" d.baseline_only;
  warn_keys "only in the current run (no baseline to diff against)"
    d.current_only;
  warn_keys "with unusable baseline mops (zero or non-finite)"
    d.bad_baseline;
  { warnings = List.rev !warnings;
    baseline_rows = List.length base;
    current_rows = List.length cur;
    deltas;
    regressions = List.filter (fun d -> d.ratio < 1. -. threshold) deltas;
    improvements = List.filter (fun d -> d.ratio > 1. +. threshold) deltas;
    threshold }

let render a =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun w -> pf "baseline: %s\n" w) a.warnings;
  pf "baseline: %d/%d rows matched against %d baseline rows\n"
    (List.length a.deltas) a.current_rows a.baseline_rows;
  let line tag d =
    pf "  %s %s: %.2f -> %.2f Mops/s (%+.1f%%)\n" tag (key_name d.cur)
      d.base_mops d.cur.mops
      (100. *. (d.ratio -. 1.))
  in
  List.iter (line "REGRESSION") a.regressions;
  List.iter (line "improved  ") a.improvements;
  if a.regressions = [] then
    pf "baseline: no regressions beyond %.0f%% (warn-only check)\n"
      (100. *. a.threshold)
  else
    pf
      "baseline: %d row(s) regressed beyond %.0f%% — check rsd before \
       believing them (warn-only check)\n"
      (List.length a.regressions) (100. *. a.threshold);
  Buffer.contents buf

let report ?threshold ~baseline ~current () =
  render (analyze ?threshold ~baseline ~current ())

let regression_count (a : analysis) = List.length a.regressions
