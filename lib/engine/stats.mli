(** Streaming and batch statistics for experiment reporting.

    Provides the sample summaries the paper reports: means with 95 %
    confidence intervals (normal approximation, as customary for the
    ~2000–5000 sample sizes used), plus percentiles and histograms for
    diagnostic output. *)

type summary = {
  n : int;            (** sample count *)
  mean : float;       (** arithmetic mean; [nan] when [n = 0] *)
  stddev : float;     (** sample standard deviation (n-1 divisor) *)
  ci95 : float;       (** half-width of the 95 % confidence interval *)
  min : float;        (** smallest sample; [nan] when [n = 0] *)
  max : float;        (** largest sample; [nan] when [n = 0] *)
}
(** Batch summary of a sample set. *)

type t
(** Mutable streaming accumulator (Welford's algorithm). *)

val create : unit -> t
(** [create ()] is an empty accumulator. *)

val add : t -> float -> unit
(** [add acc x] folds sample [x] into [acc]. *)

val count : t -> int
(** [count acc] is the number of samples folded so far. *)

val summary : t -> summary
(** [summary acc] is the current batch summary. *)

val of_list : float list -> summary
(** [of_list xs] summarises [xs]. *)

val of_array : float array -> summary
(** [of_array xs] summarises [xs]. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] is the [p]-th percentile (0 ≤ p ≤ 100) using
    linear interpolation between closest ranks, over the non-NaN
    samples only (a total [Float.compare] sort of a copy — NaN samples
    are excluded rather than landing at an unspecified rank). Raises
    [Invalid_argument] on an empty array, on an array with no non-NaN
    sample, or on out-of-range [p]. *)

val percentile_opt : float array -> p:float -> float option
(** [percentile_opt xs ~p] is the total variant of {!percentile}:
    [None] when there is no usable (non-NaN) sample instead of
    raising, so report code can chain calls without guarding. Still
    raises on out-of-range [p]. *)

val mean : float list -> float
(** [mean xs] is the arithmetic mean ([nan] on the empty list). *)

type histogram = {
  n : int;              (** sample count *)
  mean : float;         (** arithmetic mean; [nan] when [n = 0] *)
  min : float;          (** smallest sample; [nan] when [n = 0] *)
  max : float;          (** largest sample; [nan] when [n = 0] *)
  p50 : float;          (** median; [nan] when [n = 0] *)
  p90 : float;          (** 90th percentile; [nan] when [n = 0] *)
  p99 : float;          (** 99th percentile; [nan] when [n = 0] *)
  bucket_lo : float;    (** lower edge of the first bucket *)
  bucket_width : float; (** uniform bucket width *)
  buckets : int array;  (** per-bucket counts; empty when [n = 0] *)
}
(** A latency distribution: tail percentiles plus uniform-width
    buckets over [\[min, max\]]. *)

val histogram : ?bins:int -> float array -> histogram
(** [histogram ~bins xs] buckets [xs] into [bins] (default 10)
    uniform-width buckets and computes p50/p90/p99. It sorts [xs] in
    place ([Array.sort Float.compare]): pass a copy to keep the order.
    NaN samples are dropped first and do not count towards
    [n]. Returns the histogram
    of no samples ([n = 0], percentiles [nan], no buckets) when no
    non-NaN sample remains; raises [Invalid_argument] when
    [bins <= 0]. *)

(** Exact integer multisets, summarised as a {!histogram}.

    For samples that are integers with few distinct values, such as the
    simulator's scheduler charges and blocking spans (integer
    nanoseconds): memory grows with the number of distinct values, not
    with the number of samples. Recording a value already present
    allocates nothing.

    {!Counts.histogram} is bit for bit {!Stats.histogram} of the
    recorded samples, as floats, in the order they were added. Mean
    and extremes come from a Welford accumulator that takes each sample
    as it arrives, so the order of {!Counts.add} calls matters exactly
    as the array order does for {!Stats.histogram}. Percentiles and
    buckets depend only on the multiset. Every [int] is a valid sample,
    [min_int] and [max_int] included; samples past 2{^53} in magnitude
    are rounded to the nearest float as [float_of_int] rounds them. *)
module Counts : sig
  type t
  (** A mutable value -> multiplicity table plus a running mean. *)

  val create : unit -> t
  (** [create ()] holds no sample. *)

  val add : t -> int -> unit
  (** [add c v] records one more sample [v]. Amortised O(1). *)

  val count : t -> int
  (** [count c] is the number of samples recorded. *)

  val histogram : ?bins:int -> t -> histogram
  (** [histogram ~bins c] is [Stats.histogram ~bins] of the samples
      recorded in [c], in recording order, as floats. It sorts only the
      distinct values. Raises [Invalid_argument] when [bins <= 0]. *)
end

val bar_width : int
(** Width in characters of the modal bucket's bar in
    {!pp_histogram}. *)

val pp_histogram : Format.formatter -> histogram -> unit
(** [pp_histogram fmt h] prints a one-line summary followed by a
    fixed-width ASCII bar chart (the modal bucket spans the full bar
    width). *)

val pp_summary : Format.formatter -> summary -> unit
(** [pp_summary fmt s] prints ["mean ± ci95 (n=..)"]. *)

(** Streaming quantile estimation in O(1) memory (the P² algorithm of
    Jain & Chlamtac, 1985).

    Five markers track one quantile; heights are adjusted
    piecewise-parabolically as samples stream past, so tail statistics
    stay constant-memory at any arrival volume. Until five non-NaN
    samples have arrived the estimate is exact (computed from the
    retained prefix with the same interpolation as {!percentile}).
    Accuracy after that is approximate but tight in practice — the
    test suite validates it against the exact-percentile oracle. *)
module P2 : sig
  type t
  (** Mutable single-quantile estimator. *)

  val create : p:float -> t
  (** [create ~p] estimates the [p]-quantile ([0 < p < 1] — e.g.
      [0.99] for p99). Raises [Invalid_argument] otherwise. *)

  val add : t -> float -> unit
  (** [add t x] folds sample [x] in. NaN samples are skipped, matching
      {!Stats.percentile}'s NaN-dropping semantics. O(1). *)

  val count : t -> int
  (** [count t] is the number of (non-NaN) samples folded so far. *)

  val quantile : t -> float
  (** [quantile t] is the current estimate ([nan] before any
      sample; exact while [count t <= 5]). *)

  type tails = {
    n : int;       (** samples folded *)
    p50 : float;   (** median estimate; [nan] when [n = 0] *)
    p90 : float;   (** 90th-percentile estimate *)
    p99 : float;   (** 99th-percentile estimate *)
    p999 : float;  (** 99.9th-percentile estimate *)
  }
  (** The standard tail quartet used by telemetry series. *)

  type tracker
  (** Four estimators (p50/p90/p99/p999) fed together. *)

  val tracker : unit -> tracker
  val track : tracker -> float -> unit
  val tails : tracker -> tails

  val empty_tails : tails
  (** The tails of no samples ([n = 0], quantiles [nan]). *)
end
