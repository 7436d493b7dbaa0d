(** Order statistics and failure arithmetic for the benchmark's reports.

    Run-level rates are medians over trials; per-operation latencies
    are recorded into [Obs.Histogram]s.  The quartile rule is
    Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
    a spread computed here reads the same as one computed from the
    printed values. *)

val median : float array -> float
(** Median of a non-empty array (mean of the two middle values when the
    length is even).  The argument is not modified.
    @raise Invalid_argument on an empty array. *)

val interquartile_mean : float array -> float
(** Mean of the middle values of a non-empty array: the [n / 4] lowest
    and [n / 4] highest are dropped.  Unlike the median it resolves
    differences smaller than the spacing of quantized values; unlike the
    mean it ignores a few outlying trials.
    @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] by the exclusive method; needs at least two values.
    @raise Invalid_argument on fewer. *)

val spread : float array -> float
(** Inter-quartile distance as a share of the median: [(q3 - q1) / q2]. *)

val supports : samples:int -> float -> bool
(** [supports ~samples p]: at least ten of [samples] lie beyond the
    [p]-th percentile, the least tail a reported percentile may rest on. *)

val percentile : Obs.Histogram.t -> float -> float
(** [percentile h p]: {!Obs.Histogram.percentile}, refused when [p] is
    not supported by the histogram's sample count (see {!supports}).
    @raise Invalid_argument on an unsupported [p]. *)

val merge : Obs.Histogram.t array -> Obs.Histogram.t
(** A fresh histogram holding every sample of the given ones. *)

val error_rate : failed:int -> attempted:int -> float
(** [failed / attempted].  A run that attempted nothing proved nothing
    and reads as 1.0, never as clean.
    @raise Invalid_argument when [failed] is negative or exceeds
    [attempted]. *)
