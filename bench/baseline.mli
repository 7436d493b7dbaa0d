(** Warn-only baseline diffing for bench-native trajectories: match a
    fresh sweep's JSON against a committed BENCH_NATIVE.json row-by-row
    on (structure, impl, backend, domains, read_pct) and report
    throughput ratios.  Accepts schema v2 to v5 baselines; unmatched
    rows (e.g. the adaptive rows of a v4 baseline, a backend v5 no
    longer measures) are counted and warned about, never errors.

    Matching goes through a [Hashtbl] built in one pass over the
    baseline — duplicated baseline keys are warned about (the first
    occurrence wins) instead of matched silently — and {!report} /
    {!regression_count} are both views over a single {!analyze} result,
    so the documents are parsed and diffed exactly once. *)

type entry = {
  structure : string;
  impl : string;
  backend : string;
  domains : int;
  read_pct : int;
  mops : float;
}

type delta = {
  cur : entry;
  base_mops : float;
  ratio : float;  (** current / baseline *)
}

val entries_of_doc : Obs.Json_out.t -> entry list
(** The well-formed members of a trajectory's ["rows"]; rows missing a
    key field are skipped. *)

type diff_result = {
  matched : delta list;
      (** current entries matching a baseline entry with finite
          positive [mops] *)
  dup_keys : string list;
      (** duplicated baseline keys (first occurrence wins) *)
  baseline_only : string list;
      (** baseline keys with no current row — coverage shrank *)
  current_only : string list;
      (** current keys with no baseline row — new cells *)
  bad_baseline : string list;
      (** matched keys whose baseline [mops] is zero or non-finite *)
}

val diff : baseline:entry list -> current:entry list -> diff_result
(** One pass over each side; every row unmatched on either side is
    reported in the result (and surfaced as an {!analysis} warning),
    never silently skipped. *)

val default_threshold : float
(** 0.25 — the same order as the rsd flag; tighter would cry wolf. *)

type analysis = {
  warnings : string list;
      (** schema surprises, duplicate baseline keys, and asymmetric
          rows (baseline-only / current-only / unusable-mops) *)
  baseline_rows : int;
  current_rows : int;
  deltas : delta list;  (** the matched rows *)
  regressions : delta list;  (** matched rows below [1 - threshold] *)
  improvements : delta list;  (** matched rows above [1 + threshold] *)
  threshold : float;
}

val analyze :
  ?threshold:float ->
  baseline:Obs.Json_out.t ->
  current:Obs.Json_out.t ->
  unit ->
  analysis
(** Parse and diff both documents once; every other entry point is a
    view over this result. *)

val render : analysis -> string
(** Human-readable diff: warnings, matched-row count, per-row
    REGRESSION / improved lines beyond the threshold, and a warn-only
    summary line. *)

val report :
  ?threshold:float ->
  baseline:Obs.Json_out.t ->
  current:Obs.Json_out.t ->
  unit ->
  string
(** [render (analyze ...)] — the one-shot convenience the CLI uses. *)

val regression_count : analysis -> int
(** Number of regressed rows in an existing analysis, for callers that
    want to branch (the CLI and CI never fail on it). *)
