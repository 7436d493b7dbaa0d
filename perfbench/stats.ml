let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let a = sorted xs in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let interquartile_mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.interquartile_mean: empty";
  let a = sorted xs and cut = n / 4 in
  let kept = Array.sub a cut (n - (2 * cut)) in
  Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)

(* statistics.quantiles(data, n=4, method='exclusive'): with m = len + 1,
   cut point i sits at position i*m/4 (1-based) between order statistics,
   clamped to the sample range. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let a = sorted xs in
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2

let supports ~samples p =
  p >= 0. && p < 100.
  && float_of_int samples *. (1. -. (p /. 100.)) >= 10. -. 1e-9

let percentile h p =
  let samples = Obs.Histogram.count h in
  if not (supports ~samples p) then
    invalid_arg
      (Printf.sprintf "Stats.percentile: p%g needs more than %d samples" p samples);
  Obs.Histogram.percentile h p

let merge hs =
  let m = Obs.Histogram.create () in
  Array.iter (Obs.Histogram.merge_into ~dst:m) hs;
  m

let error_rate ~failed ~attempted =
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.error_rate: failed must lie in [0, attempted]";
  if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted
