(** Descriptive statistics over float samples (batch functions over
    arrays). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singleton arrays.
    Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val minimum : float array -> float
val maximum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics (the "linear" / type-7 method). Does not modify [xs].
    Raises [Invalid_argument] on an empty array or out-of-range [p]. *)

val median : float array -> float

val coefficient_of_variation : float array -> float
(** stddev / mean; raises [Invalid_argument] if the mean is zero. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** Full summary in one pass over a sorted copy. *)

val pp_summary : Format.formatter -> summary -> unit
