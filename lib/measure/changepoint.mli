(** Offline change-point detection for piecewise-constant signals,
    and the paper's Fig 2 verdict built on it.

    Implements the two standard exact/greedy methods from Truong et
    al.'s review [60], which the paper cites for its M-Lab throughput
    analysis: PELT (exact minimisation of penalised least-squares
    segmentation cost, Killick et al. 2012) and binary segmentation.
    The cost of a segment is its sum of squared deviations from the
    segment mean (the L2 / piecewise-constant-mean model).

    {!contention} is the §3.1 rule: a throughput trace is
    contention-consistent when PELT finds a level shift of at least
    {!shift_threshold} of the flow's mean. FIG2, A2 (through
    {!Mlab_analysis}) and the offline analyzer all judge through it. *)

val segment_cost : prefix:float array -> prefix_sq:float array -> int -> int -> float
(** [segment_cost ~prefix ~prefix_sq i j] is the L2 cost of the
    half-open segment [\[i, j)] given prefix sums of the signal and its
    squares ([prefix.(k)] = sum of the first [k] values). *)

val prefix_sums : float array -> float array * float array
(** Prefix sums of values and squared values, each of length n+1. *)

val pelt : ?penalty:float -> float array -> int list
(** Change-point indices (each the start of a new segment, strictly
    between 0 and n), in increasing order. [penalty] defaults to
    {!default_penalty}. Empty and singleton signals yield no change
    points. *)

val binary_segmentation : ?penalty:float -> ?max_changes:int -> float array -> int list
(** Greedy top-down splitting; stops when the best split improves the
    cost by less than [penalty] or when [max_changes] is reached. *)

val default_penalty : float array -> float
(** BIC-style penalty: 2 sigma^2 log n, with sigma^2 estimated robustly
    from the median absolute successive difference (so level shifts do
    not inflate it). Falls back to a small positive value for
    near-constant signals. *)

val segment_means : float array -> int list -> (int * int * float) list
(** [(start, stop, mean)] for each segment induced by the change points
    (stop exclusive). *)

val largest_shift : float array -> int list -> float
(** Largest absolute difference between adjacent segment means; 0 when
    there are no change points. *)

val shift_threshold : float
(** 0.2: a 20% throughput level shift. *)

type verdict = {
  change_points : int list;
  largest_shift : float;  (** {!largest_shift} over [change_points] *)
  consistent : bool;
      (** at least one change point, and
          [largest_shift /. Float.max 1e-9 mean >= shift_threshold] *)
}

val contention :
  ?penalty:float -> ?shift_threshold:float -> mean:float -> float array -> verdict
(** The Fig 2 verdict over one throughput trace: {!pelt} (with
    [penalty], default {!default_penalty}), then its largest level
    shift against [mean]. [shift_threshold] defaults to
    {!shift_threshold}. *)
