(** The paper's Fig 3 verdict (§3.2): is the cross traffic elastic?

    A Nimbus probe (see {!Ccsim_cca.Nimbus}) scores the cross traffic's
    response to its pulses; elastic (buffer-filling) traffic mirrors
    them and scores near or above 1, inelastic traffic near 0.
    Contention is intermittent — loss-based cross traffic responds
    hardest around its backoff episodes — so the verdict keys on the
    upper tail of the steady-state scores: elastic iff their p90
    exceeds {!threshold}. FIG3, C1, A1 and the offline analyzer all
    classify through {!of_samples}. *)

val threshold : float
(** 0.5. *)

type t = {
  samples : int;
  mean : float;
  p90 : float;
  elastic : bool;  (** [p90 > threshold] *)
}

val of_samples : ?threshold:float -> float array -> t
(** The verdict over steady-state elasticity samples (the caller picks
    the window). [threshold] defaults to {!threshold}. An empty array
    gives zeros and not elastic. *)
